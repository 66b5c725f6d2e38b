//! Video encoding.

use crate::bitio::{write_ivarint, write_uvarint};
use crate::color::rgb_to_ycbcr;
use crate::quant::{flat_matrix, quantise, scaled_matrix, JPEG_LUMA};
use crate::zigzag::{rle_encode, scan};
use medvid_signal::dct::{dct2_8x8, BLOCK};
use medvid_types::Image;

/// Bitstream magic bytes.
pub(crate) const MAGIC: [u8; 4] = *b"MVC1";

/// Frame-type markers in the bitstream.
pub(crate) const FRAME_I: u8 = 0;
pub(crate) const FRAME_P: u8 = 1;

/// Encoder quality in `1..=100` (JPEG convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quality(u8);

impl Quality {
    /// Creates a quality; returns `None` outside `1..=100`.
    pub fn new(q: u8) -> Option<Self> {
        (1..=100).contains(&q).then_some(Self(q))
    }

    /// The quality value.
    pub fn get(self) -> u8 {
        self.0
    }
}

impl Default for Quality {
    fn default() -> Self {
        Self(75)
    }
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Quantisation quality.
    pub quality: Quality,
    /// GOP length: an intra frame every `gop` frames (1 = all-intra).
    pub gop: usize,
    /// Motion-search radius in pixels for predicted blocks (0 = zero-motion
    /// prediction only).
    pub motion_radius: usize,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            quality: Quality::default(),
            gop: 12,
            motion_radius: 3,
        }
    }
}

/// Errors from encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Frames have differing dimensions.
    InconsistentDimensions,
    /// GOP length of zero.
    ZeroGop,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::InconsistentDimensions => {
                write!(f, "all frames must share dimensions")
            }
            EncodeError::ZeroGop => write!(f, "GOP length must be at least 1"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Planar f64 representation of one frame, padded to block multiples.
#[derive(Clone)]
pub(crate) struct Planes {
    pub(crate) w: usize,
    pub(crate) h: usize,
    /// Y, Cb, Cr planes, each `w * h` (padded dims).
    pub(crate) data: [Vec<f64>; 3],
}

impl Planes {
    pub(crate) fn padded_dims(width: usize, height: usize) -> (usize, usize) {
        (width.div_ceil(BLOCK) * BLOCK, height.div_ceil(BLOCK) * BLOCK)
    }

    pub(crate) fn from_image(img: &Image) -> Self {
        let (w, h) = Self::padded_dims(img.width(), img.height());
        let mut data = [vec![0.0; w * h], vec![0.0; w * h], vec![0.0; w * h]];
        for y in 0..h {
            for x in 0..w {
                // Edge-replicate padding.
                let sx = x.min(img.width() - 1);
                let sy = y.min(img.height() - 1);
                let (yy, cb, cr) = rgb_to_ycbcr(img.get(sx, sy));
                data[0][y * w + x] = yy;
                data[1][y * w + x] = cb;
                data[2][y * w + x] = cr;
            }
        }
        Self { w, h, data }
    }

    pub(crate) fn zero(w: usize, h: usize) -> Self {
        Self {
            w,
            h,
            data: [vec![0.0; w * h], vec![0.0; w * h], vec![0.0; w * h]],
        }
    }

    pub(crate) fn block(&self, plane: usize, bx: usize, by: usize) -> [f64; BLOCK * BLOCK] {
        self.block_at(plane, (bx * BLOCK) as isize, (by * BLOCK) as isize)
    }

    /// Reads an 8x8 block at an arbitrary (clamped) pixel offset — the
    /// motion-compensated reference fetch.
    pub(crate) fn block_at(&self, plane: usize, x0: isize, y0: isize) -> [f64; BLOCK * BLOCK] {
        let mut out = [0.0; BLOCK * BLOCK];
        for r in 0..BLOCK {
            for c in 0..BLOCK {
                let x = (x0 + c as isize).clamp(0, self.w as isize - 1) as usize;
                let y = (y0 + r as isize).clamp(0, self.h as isize - 1) as usize;
                out[r * BLOCK + c] = self.data[plane][y * self.w + x];
            }
        }
        out
    }

    pub(crate) fn set_block(
        &mut self,
        plane: usize,
        bx: usize,
        by: usize,
        values: &[f64; BLOCK * BLOCK],
    ) {
        for r in 0..BLOCK {
            for c in 0..BLOCK {
                self.data[plane][(by * BLOCK + r) * self.w + bx * BLOCK + c] =
                    values[r * BLOCK + c];
            }
        }
    }
}

/// Encodes a frame sequence into a bitstream.
///
/// # Errors
/// Returns [`EncodeError`] on inconsistent frame dimensions or zero GOP.
pub fn encode_video(frames: &[Image], config: &EncoderConfig) -> Result<Vec<u8>, EncodeError> {
    if config.gop == 0 {
        return Err(EncodeError::ZeroGop);
    }
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    let (width, height) = frames
        .first()
        .map(|f| (f.width(), f.height()))
        .unwrap_or((0, 0));
    if frames
        .iter()
        .any(|f| f.width() != width || f.height() != height)
    {
        return Err(EncodeError::InconsistentDimensions);
    }
    write_uvarint(&mut out, width as u64);
    write_uvarint(&mut out, height as u64);
    write_uvarint(&mut out, frames.len() as u64);
    out.push(config.quality.get());
    write_uvarint(&mut out, config.gop as u64);

    let intra_matrix = scaled_matrix(&JPEG_LUMA, config.quality.get());
    let pred_matrix = flat_matrix(config.quality.get());
    let (pw, ph) = Planes::padded_dims(width, height);
    let (bw, bh) = (pw / BLOCK, ph / BLOCK);
    let mut prev_recon = Planes::zero(pw, ph);

    for (i, frame) in frames.iter().enumerate() {
        let planes = Planes::from_image(frame);
        let intra = i % config.gop == 0;
        out.push(if intra { FRAME_I } else { FRAME_P });
        let matrix = if intra { &intra_matrix } else { &pred_matrix };
        let mut recon = Planes::zero(pw, ph);
        for by in 0..bh {
            for bx in 0..bw {
                // Motion search on the luma plane, shared by all planes.
                let (dx, dy) = if intra {
                    (0, 0)
                } else {
                    motion_search(&planes, &prev_recon, bx, by, config.motion_radius)
                };
                if !intra {
                    write_ivarint(&mut out, dx as i64);
                    write_ivarint(&mut out, dy as i64);
                }
                for plane in 0..3 {
                    let src = planes.block(plane, bx, by);
                    let mut residual = [0.0; BLOCK * BLOCK];
                    let pred = if intra {
                        None
                    } else {
                        Some(prev_recon.block_at(
                            plane,
                            (bx * BLOCK) as isize + dx as isize,
                            (by * BLOCK) as isize + dy as isize,
                        ))
                    };
                    match &pred {
                        None => {
                            for (r, &s) in residual.iter_mut().zip(src.iter()) {
                                *r = s - 128.0;
                            }
                        }
                        Some(p) => {
                            for ((r, &s), &pv) in
                                residual.iter_mut().zip(src.iter()).zip(p.iter())
                            {
                                *r = s - pv;
                            }
                        }
                    }
                    let coeffs = dct2_8x8(&residual);
                    let levels = quantise(&coeffs, matrix);
                    let symbols = rle_encode(&scan(&levels));
                    write_uvarint(&mut out, symbols.len() as u64);
                    for s in &symbols {
                        write_uvarint(&mut out, s.run as u64);
                        write_ivarint(&mut out, s.level as i64);
                    }
                    // Reconstruct exactly as the decoder will.
                    let deq = crate::quant::dequantise(&levels, matrix);
                    let rec_res = medvid_signal::dct::idct2_8x8(&deq);
                    let mut rec = [0.0; BLOCK * BLOCK];
                    match &pred {
                        None => {
                            for (o, &r) in rec.iter_mut().zip(rec_res.iter()) {
                                *o = (r + 128.0).clamp(0.0, 255.0);
                            }
                        }
                        Some(p) => {
                            for ((o, &r), &pv) in
                                rec.iter_mut().zip(rec_res.iter()).zip(p.iter())
                            {
                                *o = (r + pv).clamp(0.0, 255.0);
                            }
                        }
                    }
                    recon.set_block(plane, bx, by, &rec);
                }
            }
        }
        prev_recon = recon;
    }
    Ok(out)
}

/// Full-search motion estimation on the luma plane: the integer vector in
/// `[-radius, radius]^2` minimising the sum of absolute differences against
/// the previous reconstruction. Returns `(dx, dy)`.
fn motion_search(
    current: &Planes,
    reference: &Planes,
    bx: usize,
    by: usize,
    radius: usize,
) -> (i8, i8) {
    if radius == 0 {
        return (0, 0);
    }
    let src = current.block(0, bx, by);
    let x0 = (bx * BLOCK) as isize;
    let y0 = (by * BLOCK) as isize;
    let r = radius.min(127) as isize;
    let mut best = (0i8, 0i8);
    let mut best_sad = f64::INFINITY;
    for dy in -r..=r {
        for dx in -r..=r {
            let cand = reference.block_at(0, x0 + dx, y0 + dy);
            let mut sad = 0.0;
            for (a, b) in src.iter().zip(cand.iter()) {
                sad += (a - b).abs();
                if sad >= best_sad {
                    break;
                }
            }
            // Prefer the zero vector on ties (cheaper to code, stabler).
            let better = sad < best_sad - 1e-9
                || (sad < best_sad + 1e-9 && dx == 0 && dy == 0);
            if better {
                best_sad = sad;
                best = (dx as i8, dy as i8);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvid_types::Rgb;

    #[test]
    fn quality_validates_range() {
        assert!(Quality::new(0).is_none());
        assert!(Quality::new(101).is_none());
        assert_eq!(Quality::new(75).unwrap().get(), 75);
        assert_eq!(Quality::default().get(), 75);
    }

    #[test]
    fn zero_gop_rejected() {
        let cfg = EncoderConfig {
            gop: 0,
            ..Default::default()
        };
        assert_eq!(encode_video(&[], &cfg).unwrap_err(), EncodeError::ZeroGop);
    }

    #[test]
    fn inconsistent_dims_rejected() {
        let frames = vec![Image::black(16, 16), Image::black(8, 8)];
        assert_eq!(
            encode_video(&frames, &EncoderConfig::default()).unwrap_err(),
            EncodeError::InconsistentDimensions
        );
    }

    #[test]
    fn planes_pad_to_block_multiples() {
        let img = Image::filled(10, 9, Rgb::new(50, 100, 150));
        let p = Planes::from_image(&img);
        assert_eq!((p.w, p.h), (16, 16));
        // Padding replicates edge values: bottom-right padded pixel equals the
        // source's bottom-right.
        let (y, _, _) = rgb_to_ycbcr(img.get(9, 8));
        assert!((p.data[0][15 * 16 + 15] - y).abs() < 1e-9);
    }

    #[test]
    fn block_set_get_roundtrip() {
        let mut p = Planes::zero(16, 16);
        let mut block = [0.0; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = i as f64;
        }
        p.set_block(1, 1, 1, &block);
        assert_eq!(p.block(1, 1, 1), block);
        assert_eq!(p.block(1, 0, 0), [0.0; 64]);
    }

    #[test]
    fn header_layout() {
        let frames = vec![Image::black(8, 8)];
        let bits = encode_video(&frames, &EncoderConfig::default()).unwrap();
        assert_eq!(&bits[..4], b"MVC1");
    }
}
