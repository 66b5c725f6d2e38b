//! Zig-zag scanning of 8x8 blocks and run-length coding of levels.
//!
//! The inverse lives in the decoder's parser (`decode::Window`), which
//! turns the symbols straight into `(zig-zag position, level)` pairs.

use medvid_signal::dct::BLOCK;

/// The standard 8x8 zig-zag scan order (index into a row-major block).
pub const ZIGZAG: [usize; BLOCK * BLOCK] = [
    0, 1, 8, 16, 9, 2, 3, 10, //
    17, 24, 32, 25, 18, 11, 4, 5, //
    12, 19, 26, 33, 40, 48, 41, 34, //
    27, 20, 13, 6, 7, 14, 21, 28, //
    35, 42, 49, 56, 57, 50, 43, 36, //
    29, 22, 15, 23, 30, 37, 44, 51, //
    58, 59, 52, 45, 38, 31, 39, 46, //
    53, 60, 61, 54, 47, 55, 62, 63,
];

/// Reorders a row-major block into zig-zag order.
pub fn scan(block: &[i32; BLOCK * BLOCK]) -> [i32; BLOCK * BLOCK] {
    let mut out = [0; BLOCK * BLOCK];
    for (i, &z) in ZIGZAG.iter().enumerate() {
        out[i] = block[z];
    }
    out
}

/// A run-length symbol: `run` zeros followed by `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLevel {
    /// Number of preceding zero coefficients.
    pub run: u16,
    /// The non-zero level.
    pub level: i32,
}

/// Run-length encodes a zig-zag sequence. Trailing zeros are dropped (an
/// implicit end-of-block).
pub fn rle_encode(zz: &[i32; BLOCK * BLOCK]) -> Vec<RunLevel> {
    let mut out = Vec::new();
    let mut run = 0u16;
    for &v in zz.iter() {
        if v == 0 {
            run += 1;
        } else {
            out.push(RunLevel { run, level: v });
            run = 0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &z in ZIGZAG.iter() {
            assert!(!seen[z], "duplicate index {z}");
            seen[z] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn scan_follows_zigzag_order() {
        let mut block = [0i32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = i as i32 * 3 - 50;
        }
        let zz = scan(&block);
        for (i, &z) in ZIGZAG.iter().enumerate() {
            assert_eq!(zz[i], block[z]);
        }
    }

    #[test]
    fn zigzag_starts_dc_then_neighbours() {
        assert_eq!(ZIGZAG[0], 0);
        assert_eq!(ZIGZAG[1], 1);
        assert_eq!(ZIGZAG[2], 8);
        assert_eq!(ZIGZAG[63], 63);
    }

    #[test]
    fn rle_codes_the_zero_run_before_each_level() {
        let mut zz = [0i32; 64];
        zz[0] = 100;
        zz[5] = -3;
        zz[63] = 7;
        assert_eq!(
            rle_encode(&zz),
            vec![
                RunLevel { run: 0, level: 100 },
                RunLevel { run: 4, level: -3 },
                RunLevel { run: 57, level: 7 },
            ]
        );
    }

    #[test]
    fn rle_all_zero_block_is_empty() {
        assert!(rle_encode(&[0i32; 64]).is_empty());
    }
}
