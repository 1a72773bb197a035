//! A minimal 2-D `f32` image.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// A dense row-major `f32` image.
///
/// # Examples
///
/// ```
/// use snia_skysim::Image;
/// let mut img = Image::zeros(4, 4);
/// img.set(1, 2, 5.0);
/// assert_eq!(img.get(1, 2), 5.0);
/// assert_eq!(img.sum(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Image {
    /// Creates a zero-filled image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Creates an image from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "image data length mismatch");
        Image {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Flat row-major pixel data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat pixel data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x] = v;
    }

    /// Returns `self − other`, the difference image at the heart of
    /// transient detection.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn subtract(&self, other: &Image) -> Image {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "image size mismatch"
        );
        Image {
            width: self.width,
            height: self.height,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Sum of all pixels.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum pixel value.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum pixel value.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Crops a centred square region of `size` pixels.
    ///
    /// **Parity contract.** The crop origin is `⌊(dim − size) / 2⌋`. When
    /// `dim − size` is odd a perfectly centred window does not exist on
    /// the pixel grid; the floor means the **top-left wins** — one fewer
    /// row/column is discarded above/left of the window than below/right.
    /// Every output pixel is a pure copy of an input pixel (a choice of
    /// window, never a resample), and the input's centre pixel
    /// `(⌊(dim−1)/2⌋, ⌊(dim−1)/2⌋)` always survives, landing at output
    /// index `size/2` for an even crop of an odd stamp (e.g. 65→60) and
    /// at `⌊(size−1)/2⌋` in every other parity combination (e.g. 65→61,
    /// 64→63). Pinned by the `crop_center_*` tests below and by the
    /// preprocessing centre-pixel test in `snia-core`.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds either dimension or is zero.
    pub fn crop_center(&self, size: usize) -> Image {
        assert!(
            size > 0 && size <= self.width && size <= self.height,
            "invalid crop size"
        );
        let x0 = (self.width - size) / 2;
        let y0 = (self.height - size) / 2;
        let mut out = Image::zeros(size, size);
        for y in 0..size {
            let src = &self.data[(y0 + y) * self.width + x0..(y0 + y) * self.width + x0 + size];
            out.data[y * size..(y + 1) * size].copy_from_slice(src);
        }
        out
    }

    /// The paper's input transform: `y = sgn(x)·log10(|x| + 1)` applied per
    /// pixel, compressing the dynamic range while preserving sign.
    pub fn log_stretch(&self) -> Image {
        Image {
            width: self.width,
            height: self.height,
            data: self
                .data
                .iter()
                .map(|&x| x.signum() * (x.abs() + 1.0).log10())
                .collect(),
        }
    }

    /// Renders the image as an 8-bit binary PGM (P5) byte buffer, linearly
    /// scaling `[lo, hi]` to `[0, 255]` (values clamped).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn to_pgm(&self, lo: f32, hi: f32) -> Vec<u8> {
        assert!(lo < hi, "invalid PGM range");
        let mut out = format!("P5\n{} {}\n255\n", self.width, self.height).into_bytes();
        let scale = 255.0 / (hi - lo);
        out.extend(
            self.data
                .iter()
                .map(|&v| ((v - lo) * scale).clamp(0.0, 255.0) as u8),
        );
        out
    }

    /// Renders a coarse ASCII-art view (for terminal-friendly Figure 5
    /// output). `cols` sets the target width in characters.
    pub fn to_ascii(&self, cols: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let cols = cols.clamp(4, self.width);
        let step = (self.width / cols).max(1);
        let (lo, hi) = (self.min(), self.max().max(self.min() + 1e-6));
        let mut s = String::new();
        let mut y = 0;
        while y < self.height {
            let mut x = 0;
            while x < self.width {
                // Average the block.
                let mut acc = 0.0;
                let mut cnt = 0;
                for yy in y..(y + step).min(self.height) {
                    for xx in x..(x + step).min(self.width) {
                        acc += self.data[yy * self.width + xx];
                        cnt += 1;
                    }
                }
                let v = acc / cnt as f32;
                let idx = (((v - lo) / (hi - lo)) * (RAMP.len() - 1) as f32)
                    .clamp(0.0, (RAMP.len() - 1) as f32) as usize;
                let _ = write!(s, "{}", RAMP[idx] as char);
                x += step;
            }
            s.push('\n');
            y += step;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip() {
        let mut img = Image::zeros(3, 2);
        img.set(2, 1, 7.5);
        assert_eq!(img.get(2, 1), 7.5);
        assert_eq!(img.data()[5], 7.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        Image::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn subtract_recovers_injected_signal() {
        let reference = Image::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut obs = reference.clone();
        obs.set(1, 0, 10.0);
        let diff = obs.subtract(&reference);
        assert_eq!(diff.data(), &[0.0, 8.0, 0.0, 0.0]);
    }

    #[test]
    fn crop_center_extracts_middle() {
        let mut img = Image::zeros(5, 5);
        img.set(2, 2, 1.0);
        let c = img.crop_center(3);
        assert_eq!(c.width(), 3);
        assert_eq!(c.get(1, 1), 1.0);
        assert_eq!(c.sum(), 1.0);
    }

    #[test]
    fn crop_center_full_size_is_identity() {
        let img = Image::from_vec(3, 3, (0..9).map(|i| i as f32).collect());
        assert_eq!(img.crop_center(3), img);
    }

    /// An image whose pixel values encode their (x, y) coordinates, so a
    /// crop's provenance is readable off the output values.
    fn coordinate_image(dim: usize) -> Image {
        Image::from_vec(dim, dim, (0..dim * dim).map(|i| i as f32).collect())
    }

    #[test]
    fn crop_center_even_on_odd_keeps_top_left() {
        // 5 → 2: slack is 3, origin ⌊3/2⌋ = 1 — one row/col discarded on
        // the top/left, two on the bottom/right.
        let img = coordinate_image(5);
        let c = img.crop_center(2);
        assert_eq!(c.data(), &[6.0, 7.0, 11.0, 12.0]);
        // The input centre pixel (2,2) = 12 survives at output size/2 = 1.
        assert_eq!(c.get(1, 1), 12.0);

        // The paper's geometry: 65 → 60 keeps the stamp centre at 60/2.
        let stamp = coordinate_image(65);
        let cropped = stamp.crop_center(60);
        assert_eq!(cropped.get(30, 30), stamp.get(32, 32));
    }

    #[test]
    fn crop_center_odd_on_even_keeps_top_left() {
        // 4 → 3: slack is 1, origin 0 — the discarded row/col is the last.
        let img = coordinate_image(4);
        let c = img.crop_center(3);
        assert_eq!(c.data(), &[0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0]);
        // The upper-left centre pixel (1,1) = 5 sits at (size−1)/2 = 1.
        assert_eq!(c.get(1, 1), 5.0);
    }

    #[test]
    fn crop_center_same_parity_is_exactly_centred() {
        // 5 → 3: slack 2, symmetric — one row/col off every side.
        let img = coordinate_image(5);
        let c = img.crop_center(3);
        assert_eq!(c.get(1, 1), img.get(2, 2));
        assert_eq!(c.data()[0], img.get(1, 1));
    }

    #[test]
    fn log_stretch_preserves_sign_and_zero() {
        let img = Image::from_vec(3, 1, vec![-99.0, 0.0, 99.0]);
        let s = img.log_stretch();
        assert!((s.get(0, 0) + 2.0).abs() < 1e-6);
        assert_eq!(s.get(1, 0), 0.0);
        assert!((s.get(2, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn log_stretch_compresses_dynamic_range() {
        let img = Image::from_vec(2, 1, vec![10.0, 1000.0]);
        let s = img.log_stretch();
        let ratio_before = img.get(1, 0) / img.get(0, 0);
        let ratio_after = s.get(1, 0) / s.get(0, 0);
        assert!(ratio_after < ratio_before / 10.0);
    }

    #[test]
    fn pgm_header_and_length() {
        let img = Image::zeros(4, 3);
        let pgm = img.to_pgm(0.0, 1.0);
        assert!(pgm.starts_with(b"P5\n4 3\n255\n"));
        assert_eq!(pgm.len(), 11 + 12);
    }

    #[test]
    fn pgm_clamps_out_of_range() {
        let img = Image::from_vec(2, 1, vec![-10.0, 10.0]);
        let pgm = img.to_pgm(0.0, 1.0);
        let px = &pgm[pgm.len() - 2..];
        assert_eq!(px, &[0u8, 255u8]);
    }

    #[test]
    fn ascii_render_has_rows() {
        let mut img = Image::zeros(16, 16);
        // A 2×2 hot block so the brightest downsampled cell hits the top of
        // the ramp.
        for (x, y) in [(8, 8), (9, 8), (8, 9), (9, 9)] {
            img.set(x, y, 100.0);
        }
        let art = img.to_ascii(8);
        assert!(art.lines().count() >= 4);
        assert!(art.contains('@'));
    }
}
