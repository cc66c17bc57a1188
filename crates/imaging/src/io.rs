//! Lightweight image output for figure regeneration.
//!
//! The paper's Figure 4 is a visualization; our quantitative reproduction
//! writes its 2-D slices as binary PGM (P5) files that external tools can
//! inspect.

use crate::volume::Volume;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Write an axial slice of a scalar volume as an 8-bit PGM image,
/// windowing `[lo, hi]` to `[0, 255]`.
pub fn write_slice_pgm(vol: &Volume<f32>, z: usize, lo: f32, hi: f32, path: &Path) -> io::Result<()> {
    let d = vol.dims();
    assert!(z < d.nz, "slice {z} out of range");
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "P5")?;
    writeln!(w, "{} {}", d.nx, d.ny)?;
    writeln!(w, "255")?;
    let range = (hi - lo).max(1e-12);
    for y in 0..d.ny {
        for x in 0..d.nx {
            let v = ((*vol.get(x, y, z) - lo) / range).clamp(0.0, 1.0);
            w.write_all(&[(v * 255.0) as u8])?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{Dims, Spacing};

    #[test]
    fn pgm_roundtrip_header() {
        let v = Volume::from_fn(Dims::new(8, 6, 3), Spacing::iso(1.0), |x, _, _| x as f32);
        let dir = std::env::temp_dir();
        let path = dir.join("brainshift_test_slice.pgm");
        write_slice_pgm(&v, 1, 0.0, 7.0, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header = String::from_utf8_lossy(&bytes[..12]);
        assert!(header.starts_with("P5"));
        assert!(header.contains("8 6"));
        // 8*6 pixels after the header
        assert!(bytes.len() > 48);
        std::fs::remove_file(&path).ok();
    }
}
