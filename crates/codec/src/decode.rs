//! Video decoding.

use crate::bitio::{ReadError, Reader};
use crate::color::ycbcr_to_rgb;
use crate::encode::{Planes, FRAME_I, FRAME_P, MAGIC};
use crate::quant::{flat_matrix, scaled_matrix, JPEG_LUMA};
use crate::zigzag::ZIGZAG;
use medvid_signal::dct::{idct2_8x8, BLOCK};
use medvid_types::Image;

/// Errors from decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream does not start with the codec magic.
    BadMagic,
    /// The stream ended prematurely or contained malformed varints.
    Bitstream(ReadError),
    /// A frame-type marker was invalid.
    BadFrameType(u8),
    /// Run-length data overflowed a block.
    BlockOverflow,
    /// Header fields describe an implausible video (e.g. gigantic dims).
    BadHeader,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a MVC1 bitstream"),
            DecodeError::Bitstream(e) => write!(f, "bitstream error: {e}"),
            DecodeError::BadFrameType(t) => write!(f, "invalid frame type {t}"),
            DecodeError::BlockOverflow => write!(f, "run-length data overflows block"),
            DecodeError::BadHeader => write!(f, "implausible header fields"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<ReadError> for DecodeError {
    fn from(e: ReadError) -> Self {
        DecodeError::Bitstream(e)
    }
}

/// Sanity limit on header dimensions (pixels per side).
const MAX_DIM: u64 = 1 << 16;
/// Sanity limit on frame count.
const MAX_FRAMES: u64 = 1 << 24;
/// Sanity limit on pixels per frame: the per-side cap alone still admits
/// a 65536x65536 header, whose reconstruction planes would allocate tens
/// of gigabytes before the first (likely garbage) frame byte is read.
const MAX_PIXELS: u64 = 1 << 24;

/// Stream bytes per parse window. A window closes at the first frame
/// boundary at or past this many bytes. Its parsed form costs at most 8
/// bytes per symbol (each took at least 2 stream bytes) and 5 bytes per
/// block (at least 3 stream bytes), so it never exceeds 4 × the window's
/// stream bytes: about 4 MiB plus 4 × one frame's bytes.
const WINDOW_BYTES: usize = 1 << 20;

/// Decodes a bitstream produced by [`crate::encode_video`].
///
/// Decoding alternates two phases over windows of the stream:
///
/// 1. **Serial parse** (`Window::parse`) of the window's frames into
///    motion vectors and `(zig-zag position, level)` symbols. Every check
///    runs here, in stream order, so a malformed stream fails with the
///    error its first offending byte implies, and nothing is reconstructed
///    from a window that does not parse.
/// 2. **Parallel reconstruction** (`Window::reconstruct`). An I-frame
///    depends on no earlier frame, so the window splits into segments at
///    its I-frames (as the frame-type bytes say, whatever the header's
///    GOP) and segments run concurrently on `medvid-par`. A segment opening
///    on a P-frame predicts from the previous window's last frame, or from
///    zero planes at frame 0.
///
/// Each frame is a pure function of the parsed stream, so the output is
/// bit-identical at any thread count. Inside an enclosing parallel region
/// reconstruction runs sequentially, as every `medvid-par` loop does.
///
/// # Errors
/// Returns [`DecodeError`] for malformed or truncated streams.
pub fn decode_video(bits: &[u8]) -> Result<Vec<Image>, DecodeError> {
    decode_windowed(bits, WINDOW_BYTES)
}

fn decode_windowed(bits: &[u8], window_bytes: usize) -> Result<Vec<Image>, DecodeError> {
    let mut r = Reader::new(bits);
    for &m in MAGIC.iter() {
        if r.read_byte()? != m {
            return Err(DecodeError::BadMagic);
        }
    }
    let width = r.read_uvarint()?;
    let height = r.read_uvarint()?;
    let n_frames = r.read_uvarint()?;
    if width > MAX_DIM || height > MAX_DIM || n_frames > MAX_FRAMES {
        return Err(DecodeError::BadHeader);
    }
    if width * height > MAX_PIXELS {
        return Err(DecodeError::BadHeader);
    }
    let (width, height, n_frames) = (width as usize, height as usize, n_frames as usize);
    let quality = r.read_byte()?;
    let _gop = r.read_uvarint()?;
    if n_frames > 0 && (width == 0 || height == 0) {
        return Err(DecodeError::BadHeader);
    }

    let (pw, ph) = Planes::padded_dims(width.max(1), height.max(1));
    let layout = Layout {
        width,
        height,
        pw,
        ph,
        bw: pw / BLOCK,
        intra_matrix: scaled_matrix(&JPEG_LUMA, quality),
        pred_matrix: flat_matrix(quality),
    };
    // Reserve against the bytes actually present, not the header's claim:
    // every frame costs at least one stream byte, so a lying `n_frames`
    // on a short buffer cannot force a huge up-front allocation.
    let mut frames = Vec::with_capacity(n_frames.min(r.remaining()));
    let mut window = Window::default();
    let mut carry = None;
    while frames.len() < n_frames {
        window.parse(&mut r, &layout, n_frames - frames.len(), window_bytes)?;
        carry = Some(window.reconstruct(&layout, carry.as_ref(), &mut frames));
    }
    Ok(frames)
}

/// Frame geometry and dequantisation tables shared by both phases.
struct Layout {
    width: usize,
    height: usize,
    /// Padded plane dimensions (block multiples).
    pw: usize,
    ph: usize,
    /// Blocks per row.
    bw: usize,
    intra_matrix: [f64; BLOCK * BLOCK],
    pred_matrix: [f64; BLOCK * BLOCK],
}

impl Layout {
    fn blocks(&self) -> usize {
        self.bw * (self.ph / BLOCK)
    }

    /// Crops and colour-converts reconstructed planes straight into the
    /// image's interleaved RGB buffer.
    fn to_image(&self, p: &Planes) -> Image {
        let mut img = Image::black(self.width, self.height);
        for (y, row) in img.raw_mut().chunks_exact_mut(self.width * 3).enumerate() {
            let i0 = y * p.w;
            let [py, pb, pr] = &p.data;
            let (py, pb, pr) = (&py[i0..], &pb[i0..], &pr[i0..]);
            for (x, px) in row.chunks_exact_mut(3).enumerate() {
                let rgb = ycbcr_to_rgb(py[x], pb[x], pr[x]);
                px.copy_from_slice(&[rgb.r, rgb.g, rgb.b]);
            }
        }
        img
    }
}

/// The parsed form of a run of frames.
#[derive(Default)]
struct Window {
    /// Whether each frame is intra-coded.
    intra: Vec<bool>,
    /// Index into `symbols` of each frame's first symbol.
    first_symbol: Vec<usize>,
    /// Motion vector of every block of every frame (zero in I-frames).
    motion: Vec<[i8; 2]>,
    /// Symbol count of every block-plane of every frame, in stream order.
    counts: Vec<u8>,
    /// `(zig-zag position, level)` of every coded coefficient.
    symbols: Vec<(u8, i32)>,
}

impl Window {
    /// Replaces the window with the next frames of `r`: at least one, at
    /// most `left`, stopping at the first frame boundary at or past
    /// `window_bytes` of stream.
    fn parse(
        &mut self,
        r: &mut Reader<'_>,
        layout: &Layout,
        left: usize,
        window_bytes: usize,
    ) -> Result<(), DecodeError> {
        self.intra.clear();
        self.first_symbol.clear();
        self.motion.clear();
        self.counts.clear();
        self.symbols.clear();
        let start = r.remaining();
        loop {
            self.parse_frame(r, layout)?;
            if self.intra.len() == left || start - r.remaining() >= window_bytes {
                return Ok(());
            }
        }
    }

    fn parse_frame(&mut self, r: &mut Reader<'_>, layout: &Layout) -> Result<(), DecodeError> {
        let intra = match r.read_byte()? {
            FRAME_I => true,
            FRAME_P => false,
            other => return Err(DecodeError::BadFrameType(other)),
        };
        self.intra.push(intra);
        self.first_symbol.push(self.symbols.len());
        for _ in 0..layout.blocks() {
            let mv = if intra {
                [0, 0]
            } else {
                let dx = r.read_ivarint()?;
                let dy = r.read_ivarint()?;
                if dx.unsigned_abs() > 127 || dy.unsigned_abs() > 127 {
                    return Err(DecodeError::BadHeader);
                }
                [dx as i8, dy as i8]
            };
            self.motion.push(mv);
            for _plane in 0..3 {
                self.parse_block(r)?;
            }
        }
        Ok(())
    }

    /// Parses one block-plane's run-length symbols. A run past the block is
    /// only reported once every symbol has been read, so a truncated stream
    /// fails as truncated.
    fn parse_block(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let n_sym = r.read_uvarint()? as usize;
        if n_sym > BLOCK * BLOCK {
            return Err(DecodeError::BlockOverflow);
        }
        let mut pos = 0usize;
        let mut overflow = false;
        for _ in 0..n_sym {
            let run = r.read_uvarint()?;
            let level = r.read_ivarint()?;
            if run > (BLOCK * BLOCK) as u64 {
                return Err(DecodeError::BlockOverflow);
            }
            // `pos` never decreases, so once past the block it stays past.
            pos += run as usize;
            if pos >= BLOCK * BLOCK {
                overflow = true;
            } else {
                self.symbols.push((pos as u8, level as i32));
                pos += 1;
            }
        }
        if overflow {
            return Err(DecodeError::BlockOverflow);
        }
        self.counts.push(n_sym as u8);
        Ok(())
    }

    /// Reconstructs the window's frames onto `out`, segment by segment in
    /// parallel. `carry` is the previous window's last frame; the return
    /// value is this window's, for the next.
    fn reconstruct(&self, layout: &Layout, carry: Option<&Planes>, out: &mut Vec<Image>) -> Planes {
        let n = self.intra.len();
        let starts: Vec<usize> = (0..n).filter(|&f| f == 0 || self.intra[f]).collect();
        let segments = medvid_par::par_map_indexed(starts.len(), |s| {
            let end = starts.get(s + 1).copied().unwrap_or(n);
            let prev = match carry {
                Some(planes) if s == 0 => planes.clone(),
                _ => Planes::zero(layout.pw, layout.ph),
            };
            self.decode_segment(layout, starts[s]..end, prev, end == n)
        });
        let mut last = None;
        for (frames, planes) in segments {
            out.extend(frames);
            last = planes.or(last);
        }
        last.expect("a parsed window holds at least one frame")
    }

    /// Reconstructs `frames` from `prev`, reusing two plane buffers. Returns
    /// the images and, if `keep_last`, the final frame's planes.
    fn decode_segment(
        &self,
        layout: &Layout,
        frames: std::ops::Range<usize>,
        mut prev: Planes,
        keep_last: bool,
    ) -> (Vec<Image>, Option<Planes>) {
        let mut cur = Planes::zero(layout.pw, layout.ph);
        let mut images = Vec::with_capacity(frames.len());
        for f in frames {
            self.reconstruct_frame(layout, f, &prev, &mut cur);
            images.push(layout.to_image(&cur));
            std::mem::swap(&mut prev, &mut cur);
        }
        (images, keep_last.then_some(prev))
    }

    fn reconstruct_frame(&self, layout: &Layout, f: usize, prev: &Planes, cur: &mut Planes) {
        let intra = self.intra[f];
        let matrix = if intra {
            &layout.intra_matrix
        } else {
            &layout.pred_matrix
        };
        let blocks = layout.blocks();
        let mut next = self.first_symbol[f];
        for b in 0..blocks {
            let (bx, by) = (b % layout.bw, b / layout.bw);
            let [dx, dy] = self.motion[f * blocks + b];
            for plane in 0..3 {
                let n_sym = self.counts[(f * blocks + b) * 3 + plane] as usize;
                let mut coeffs = [0.0; BLOCK * BLOCK];
                for &(pos, level) in &self.symbols[next..next + n_sym] {
                    let z = ZIGZAG[pos as usize];
                    coeffs[z] = level as f64 * matrix[z];
                }
                next += n_sym;
                let residual = idct2_8x8(&coeffs);
                let mut rec = [0.0; BLOCK * BLOCK];
                if intra {
                    for (o, &v) in rec.iter_mut().zip(residual.iter()) {
                        *o = (v + 128.0).clamp(0.0, 255.0);
                    }
                } else {
                    let pred = prev.block_at(
                        plane,
                        (bx * BLOCK) as isize + dx as isize,
                        (by * BLOCK) as isize + dy as isize,
                    );
                    for ((o, &v), &p) in rec.iter_mut().zip(residual.iter()).zip(pred.iter()) {
                        *o = (v + p).clamp(0.0, 255.0);
                    }
                }
                cur.set_block(plane, bx, by, &rec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_video, EncoderConfig};
    use medvid_types::Rgb;

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            decode_video(b"XXXX rest").unwrap_err(),
            DecodeError::BadMagic
        );
    }

    #[test]
    fn bad_frame_type_rejected() {
        let frames = vec![Image::black(8, 8)];
        let mut bits = encode_video(&frames, &EncoderConfig::default()).unwrap();
        // Frame type byte follows magic(4) + w/h/count varints (3 x 1 byte
        // here) + quality byte + gop varint (1 byte) = offset 9.
        bits[9] = 7;
        assert_eq!(
            decode_video(&bits).unwrap_err(),
            DecodeError::BadFrameType(7)
        );
    }

    #[test]
    fn implausible_header_rejected() {
        let mut bits = Vec::new();
        bits.extend_from_slice(b"MVC1");
        crate::bitio::write_uvarint(&mut bits, u64::MAX); // width
        crate::bitio::write_uvarint(&mut bits, 1);
        crate::bitio::write_uvarint(&mut bits, 1);
        bits.push(75);
        crate::bitio::write_uvarint(&mut bits, 12);
        assert_eq!(decode_video(&bits).unwrap_err(), DecodeError::BadHeader);
    }

    #[test]
    fn window_size_does_not_change_the_frames() {
        // Content that moves, with an I-frame every 5 frames, so windows
        // closing mid-segment must carry the last frame's planes across.
        let frames: Vec<Image> = (0..23)
            .map(|t| {
                let mut img = Image::filled(21, 13, Rgb::new(30, 90, 160));
                img.fill_rect(t % 15, 2, t % 15 + 5, 9, Rgb::new(230, 40, 20));
                img
            })
            .collect();
        let config = EncoderConfig {
            gop: 5,
            ..EncoderConfig::default()
        };
        let bits = encode_video(&frames, &config).unwrap();
        let whole = decode_windowed(&bits, usize::MAX).unwrap();
        assert_eq!(whole.len(), frames.len());
        for window_bytes in [0, 1, 100, 700, bits.len() / 3] {
            for threads in [1, 2, 3] {
                let out =
                    medvid_par::with_threads(threads, || decode_windowed(&bits, window_bytes));
                assert_eq!(
                    out.as_ref(),
                    Ok(&whole),
                    "{window_bytes}-byte windows, {threads} threads"
                );
            }
        }
        assert_eq!(decode_video(&bits).unwrap(), whole);
    }

    #[test]
    fn truncation_reports_eof_before_block_overflow() {
        // One 8x8 I-frame whose first block-plane claims two symbols: a
        // run that already leaves the block, then nothing. The decoder
        // reads symbols before judging the run, so it reports truncation.
        let mut bits = b"MVC1".to_vec();
        for v in [8, 8, 1] {
            crate::bitio::write_uvarint(&mut bits, v);
        }
        bits.push(75);
        crate::bitio::write_uvarint(&mut bits, 12);
        bits.push(FRAME_I);
        crate::bitio::write_uvarint(&mut bits, 2); // symbols
        crate::bitio::write_uvarint(&mut bits, 64); // run: past the block
        crate::bitio::write_ivarint(&mut bits, 5);
        assert_eq!(
            decode_video(&bits).unwrap_err(),
            DecodeError::Bitstream(ReadError::UnexpectedEof)
        );
        // With the second symbol present, the overflow is reported.
        crate::bitio::write_uvarint(&mut bits, 0);
        crate::bitio::write_ivarint(&mut bits, 1);
        assert_eq!(decode_video(&bits).unwrap_err(), DecodeError::BlockOverflow);
    }

    #[test]
    fn non_multiple_of_eight_dims_roundtrip() {
        let mut img = Image::filled(13, 11, Rgb::new(120, 90, 200));
        img.fill_rect(0, 0, 6, 6, Rgb::new(20, 180, 60));
        let bits = encode_video(&[img.clone()], &EncoderConfig::default()).unwrap();
        let out = decode_video(&bits).unwrap();
        assert_eq!(out[0].width(), 13);
        assert_eq!(out[0].height(), 11);
        assert!(crate::psnr(&img, &out[0]) > 25.0);
    }
}
