//! Input encoding: magnitudes → regression targets, and the D4
//! augmentation of preprocessed stamps. The stamp preprocessing itself
//! (difference image, signed log stretch, centred crop) is
//! `snia_dataset::render_stamp`.

/// Magnitude clamp range (matches the feature normalisation in
/// `snia_dataset::features`).
pub const MAG_RANGE: (f64, f64) = (18.0, 30.0);

/// Maps a magnitude to the CNN regression target `(clamp(m) − 24) / 4`.
///
/// The same normalisation as the classifier's magnitude features, so the
/// CNN output can be fed to the classifier unchanged in the joint model.
///
/// The clamp makes this map **lossy**: every magnitude outside
/// [`MAG_RANGE`] saturates to the nearest bound (non-finite inputs
/// included), so [`target_to_mag`] can only undo it inside the range.
pub fn mag_to_target(mag: f64) -> f32 {
    ((mag.clamp(MAG_RANGE.0, MAG_RANGE.1) - 24.0) / 4.0) as f32
}

/// Maps a regression target back to a magnitude: `target × 4 + 24`.
///
/// This inverts [`mag_to_target`] **only for magnitudes inside
/// [`MAG_RANGE`]** (up to `f32` rounding). Outside the range the forward
/// map clamps, so the round trip returns the violated bound, not the
/// original magnitude — `target_to_mag(mag_to_target(35.0)) == 30.0`.
/// Network outputs are not clamped here: a prediction outside the range
/// maps to a magnitude outside the range.
pub fn target_to_mag(target: f32) -> f64 {
    f64::from(target) * 4.0 + 24.0
}

/// Applies one of the eight dihedral (D4) symmetries to a square image
/// stored as a flat row-major slice, in place.
///
/// `code & 1` → horizontal flip, `code & 2` → vertical flip,
/// `code & 4` → transpose. The supernova-magnitude target is invariant
/// under all eight, which makes D4 the natural training augmentation.
///
/// # Panics
///
/// Panics if `pixels.len() != size * size`.
pub fn d4_transform(pixels: &mut [f32], size: usize, code: u8) {
    assert_eq!(pixels.len(), size * size, "not a square image");
    if code & 1 != 0 {
        for row in pixels.chunks_mut(size) {
            row.reverse();
        }
    }
    if code & 2 != 0 {
        for y in 0..size / 2 {
            for x in 0..size {
                pixels.swap(y * size + x, (size - 1 - y) * size + x);
            }
        }
    }
    if code & 4 != 0 {
        for y in 0..size {
            for x in 0..y {
                pixels.swap(y * size + x, x * size + y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mag_target_round_trip() {
        for m in [19.0, 22.0, 24.0, 27.5] {
            let t = mag_to_target(m);
            assert!((target_to_mag(t) - m).abs() < 1e-5);
        }
    }

    #[test]
    fn mag_target_clamps_faint() {
        assert_eq!(mag_to_target(50.0), mag_to_target(30.0));
        assert_eq!(mag_to_target(f64::INFINITY), mag_to_target(30.0));
    }

    #[test]
    fn target_is_order_unity() {
        assert!(mag_to_target(18.0).abs() <= 1.6);
        assert!(mag_to_target(30.0).abs() <= 1.6);
    }

    #[test]
    fn d4_identity_is_noop() {
        let mut px = vec![1.0, 2.0, 3.0, 4.0];
        d4_transform(&mut px, 2, 0);
        assert_eq!(px, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn d4_horizontal_flip() {
        let mut px = vec![1.0, 2.0, 3.0, 4.0];
        d4_transform(&mut px, 2, 1);
        assert_eq!(px, vec![2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn d4_transforms_are_bijections() {
        // Every code permutes the pixels (multiset preserved), and applying
        // a flip twice restores the original.
        let base: Vec<f32> = (0..25).map(|i| i as f32).collect();
        for code in 0..8u8 {
            let mut px = base.clone();
            d4_transform(&mut px, 5, code);
            let mut sorted = px.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(sorted, base, "code {code} lost pixels");
        }
        for code in [1u8, 2, 4] {
            let mut px = base.clone();
            d4_transform(&mut px, 5, code);
            d4_transform(&mut px, 5, code);
            assert_eq!(px, base, "code {code} is not an involution");
        }
    }

    #[test]
    fn d4_total_flux_is_invariant() {
        let mut px: Vec<f32> = (0..36).map(|i| (i as f32).sin()).collect();
        let total: f32 = px.iter().sum();
        for code in 0..8u8 {
            d4_transform(&mut px, 6, code);
            assert!((px.iter().sum::<f32>() - total).abs() < 1e-4);
        }
    }
}
