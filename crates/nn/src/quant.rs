//! Int8 weight-only quantization.
//!
//! Quantization is **per-tensor symmetric**: a weight matrix `W` maps to
//! `i8` codes `q = clamp(round(W / s), -127, 127)` with one `f32` scale
//! `s = max|W| / 127`, and reconstructs as `(q as f32) · s` — an exact
//! conversion followed by one correctly-rounded multiply, so every
//! machine dequantizes to the same f32 values.
//!
//! There is no separate int8 inference path: `--quantize` (see
//! [`crate::ParamStore::quantize_int8`]) rounds each quantizable weight
//! in place to its dequantized grid value before the checkpoint is
//! written, and every forward pass — taped or tape-free — then runs the
//! ordinary f32 kernels over those rounded weights. The only divergence
//! from the unrounded model is the weight rounding itself (≤ s/2 ≈
//! max|W|/254 per weight); activations, biases, batch-norm statistics,
//! embeddings and the attention QKV projections are never rounded.
//!
//! The serialized form below is the payload of the CGPC checkpoint's
//! `quant` section (see `docs/checkpoint-format.md`). New checkpoints no
//! longer carry it, but the loader still accepts older files that do and
//! writes the dequantized codes into the named weights;
//! [`write_quant_blob`] stays as the executable spec of that payload.

use std::io::{self, Read, Write};

use crate::tensor::Tensor;

/// A per-tensor symmetrically quantized weight matrix: `i8` codes plus
/// one `f32` scale, in the same row-major layout as the f32 original.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    scale: f32,
    data: Vec<i8>,
}

impl QuantMatrix {
    /// Quantizes an f32 matrix: `scale = max|W| / 127`,
    /// `q = clamp(round(W / scale), -127, 127)`. An all-zero (or empty)
    /// matrix gets scale `1.0` so dequantization never divides by zero.
    pub fn quantize(t: &Tensor) -> QuantMatrix {
        let max_abs = t.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        let inv = 1.0 / scale;
        let data = t
            .as_slice()
            .iter()
            .map(|&v| (v * inv).round().clamp(-127.0, 127.0) as i8)
            .collect();
        QuantMatrix {
            rows: t.rows(),
            cols: t.cols(),
            scale,
            data,
        }
    }

    /// Assembles a quant matrix from raw parts (the checkpoint loader).
    ///
    /// # Errors
    ///
    /// Rejects a data length that does not match `rows × cols`, or a
    /// non-finite / non-positive scale.
    pub fn from_parts(rows: usize, cols: usize, scale: f32, data: Vec<i8>) -> Result<Self, String> {
        if data.len() != rows * cols {
            return Err(format!(
                "quant matrix data length {} does not match shape {rows}x{cols}",
                data.len()
            ));
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(format!("quant scale {scale} must be finite and positive"));
        }
        Ok(QuantMatrix {
            rows,
            cols,
            scale,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The per-tensor scale `s` (weights reconstruct as `q · s`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The row-major `i8` codes.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Materializes the dequantized f32 matrix (`q · s` per element) —
    /// exactly the values a quantized weight is rounded to.
    pub fn dequantize(&self) -> Tensor {
        let s = self.scale;
        Tensor::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&q| (q as f32) * s).collect(),
        )
    }

    /// Worst-case absolute weight rounding error, `scale / 2`.
    pub fn max_weight_error(&self) -> f32 {
        self.scale * 0.5
    }
}

/// Serializes named quant matrices as the payload of a CGPC `quant`
/// section: `u64 count`, then per entry `u64 name_len || name || u64
/// rows || u64 cols || f32 scale || rows·cols i8 codes` (all
/// little-endian).
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_quant_blob<W: Write>(mut w: W, entries: &[(&str, &QuantMatrix)]) -> io::Result<()> {
    w.write_all(&(entries.len() as u64).to_le_bytes())?;
    for (name, q) in entries {
        w.write_all(&(name.len() as u64).to_le_bytes())?;
        w.write_all(name.as_bytes())?;
        w.write_all(&(q.rows as u64).to_le_bytes())?;
        w.write_all(&(q.cols as u64).to_le_bytes())?;
        w.write_all(&q.scale.to_le_bytes())?;
        // i8 → u8 is a bit-identity; write the codes as one block.
        let bytes: &[u8] =
            unsafe { std::slice::from_raw_parts(q.data.as_ptr() as *const u8, q.data.len()) };
        w.write_all(bytes)?;
    }
    Ok(())
}

/// Parses a `quant` section payload (the counterpart of
/// [`write_quant_blob`]), validating every length before allocating.
///
/// # Errors
///
/// Returns a descriptive message on truncation, an unreasonable count /
/// name / matrix size, or an invalid scale — never panics on hostile
/// bytes.
pub fn read_quant_blob<R: Read>(mut r: R) -> Result<Vec<(String, QuantMatrix)>, String> {
    fn read_u64<R: Read>(r: &mut R, what: &str) -> Result<u64, String> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)
            .map_err(|e| format!("quant section truncated reading {what}: {e}"))?;
        Ok(u64::from_le_bytes(b))
    }
    let count = read_u64(&mut r, "entry count")? as usize;
    if count > 1 << 16 {
        return Err(format!("quant section claims {count} entries (corrupt)"));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let name_len = read_u64(&mut r, "name length")? as usize;
        if name_len > 1 << 12 {
            return Err(format!(
                "quant entry {i} claims a {name_len}-byte name (corrupt)"
            ));
        }
        let mut name_buf = vec![0u8; name_len];
        r.read_exact(&mut name_buf)
            .map_err(|e| format!("quant section truncated reading entry {i} name: {e}"))?;
        let name = String::from_utf8(name_buf)
            .map_err(|_| format!("quant entry {i} name is not UTF-8"))?;
        let rows = read_u64(&mut r, "rows")? as usize;
        let cols = read_u64(&mut r, "cols")? as usize;
        if rows.saturating_mul(cols) > 1 << 28 {
            return Err(format!(
                "quant entry {name:?} claims an unreasonable {rows}x{cols} matrix"
            ));
        }
        let mut sb = [0u8; 4];
        r.read_exact(&mut sb)
            .map_err(|e| format!("quant section truncated reading {name:?} scale: {e}"))?;
        let scale = f32::from_le_bytes(sb);
        let mut data = vec![0i8; rows * cols];
        {
            // i8 → u8 view for one bulk read; bit-identical.
            let bytes: &mut [u8] =
                unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr() as *mut u8, data.len()) };
            r.read_exact(bytes)
                .map_err(|e| format!("quant section truncated reading {name:?} codes: {e}"))?;
        }
        let q = QuantMatrix::from_parts(rows, cols, scale, data)
            .map_err(|e| format!("quant entry {name:?}: {e}"))?;
        out.push((name, q));
    }
    // Trailing garbage means the section was not produced by this
    // serializer (or was bit-extended): reject rather than ignore.
    let mut probe = [0u8; 1];
    match r.read(&mut probe) {
        Ok(0) => Ok(out),
        Ok(_) => Err("quant section has trailing bytes (corrupt)".to_string()),
        Err(e) => Err(format!("quant section read error: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| ((i as f32) * 0.173).sin() * 2.5)
                .collect(),
        )
    }

    #[test]
    fn quantize_round_trips_within_half_scale() {
        let t = ramp(7, 9);
        let q = QuantMatrix::quantize(&t);
        let d = q.dequantize();
        for (x, y) in t.as_slice().iter().zip(d.as_slice()) {
            assert!(
                (x - y).abs() <= q.max_weight_error() + 1e-7,
                "{x} vs {y} (scale {})",
                q.scale()
            );
        }
    }

    #[test]
    fn zero_matrix_quantizes_safely() {
        let q = QuantMatrix::quantize(&Tensor::zeros(3, 4));
        assert_eq!(q.scale(), 1.0);
        assert!(q.data().iter().all(|&v| v == 0));
        assert!(q.dequantize().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn blob_round_trips() {
        let q1 = QuantMatrix::quantize(&ramp(5, 8));
        let q2 = QuantMatrix::quantize(&ramp(3, 1));
        let mut bytes = Vec::new();
        write_quant_blob(&mut bytes, &[("a.weight", &q1), ("b.weight", &q2)]).unwrap();
        let entries = read_quant_blob(&bytes[..]).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "a.weight");
        assert_eq!(entries[0].1, q1);
        assert_eq!(entries[1].1, q2);
    }

    #[test]
    fn truncated_blob_is_an_error_not_a_panic() {
        let q = QuantMatrix::quantize(&ramp(4, 4));
        let mut bytes = Vec::new();
        write_quant_blob(&mut bytes, &[("w", &q)]).unwrap();
        for cut in [0, 3, 9, bytes.len() - 1] {
            let err = read_quant_blob(&bytes[..cut]).unwrap_err();
            assert!(err.contains("truncated"), "cut {cut}: {err}");
        }
        // Trailing garbage is also rejected.
        bytes.push(0xAB);
        assert!(read_quant_blob(&bytes[..])
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn absurd_sizes_are_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_quant_blob(&bytes[..]).unwrap_err().contains("entries"));
    }
}
