//! Flat binary checkpoints for layer parameters and buffers.
//!
//! Format (little-endian):
//!
//! ```text
//! magic   b"LECAWT01"
//! u32     parameter tensor count
//! per tensor: u32 rank, u32 dims[rank], f32 data[len]
//! u32     buffer tensor count
//! per tensor: same encoding
//! ```
//!
//! A checkpoint file is that payload followed by a 16-byte integrity
//! footer:
//!
//! ```text
//! u32     CRC-32 (IEEE) of the payload above
//! u64     payload length in bytes
//! magic   b"LCK1"
//! ```
//!
//! [`save`] writes it atomically (`<path>.tmp` + fsync + rename), so a
//! crash mid-write never leaves a half-written file under the final name.
//! [`load`] refuses a file without the footer, and [`from_bytes`] refuses
//! bytes after the buffer section, so a corrupt or truncated checkpoint is
//! *detected* rather than silently restoring garbage weights: neither
//! truncating the file by one byte nor flipping a footer-magic bit along
//! with a payload bit gets past the checksum.
//!
//! Checkpoints are used to cache pre-trained backbones between experiment
//! runs and to hand weights from hard training to noisy fine-tuning.

use crate::{Layer, NnError, Result};
use leca_tensor::Tensor;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"LECAWT01";
const FOOTER_MAGIC: &[u8; 4] = b"LCK1";
const FOOTER_LEN: usize = 16;

/// CRC-32 (IEEE 802.3, reflected) over `data`.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Appends the integrity footer to a serialized payload.
fn append_footer(payload: &mut Vec<u8>) {
    let crc = crc32(payload);
    let len = payload.len() as u64;
    payload.extend_from_slice(&crc.to_le_bytes());
    payload.extend_from_slice(&len.to_le_bytes());
    payload.extend_from_slice(FOOTER_MAGIC);
}

/// Validates and strips the footer, returning the payload slice.
fn strip_footer(data: &[u8]) -> Result<&[u8]> {
    if data.len() < FOOTER_LEN || &data[data.len() - 4..] != FOOTER_MAGIC {
        return Err(NnError::CheckpointMismatch(
            "checkpoint has no LCK1 integrity footer".into(),
        ));
    }
    let base = data.len() - FOOTER_LEN;
    let crc = u32::from_le_bytes(data[base..base + 4].try_into().expect("length checked"));
    let len = u64::from_le_bytes(
        data[base + 4..base + 12]
            .try_into()
            .expect("length checked"),
    );
    if len != base as u64 {
        return Err(NnError::CheckpointMismatch(format!(
            "checkpoint footer records {len} payload bytes, file holds {base}"
        )));
    }
    let payload = &data[..base];
    let actual = crc32(payload);
    if actual != crc {
        return Err(NnError::CheckpointMismatch(format!(
            "checkpoint checksum mismatch: footer {crc:#010x}, payload {actual:#010x}"
        )));
    }
    Ok(payload)
}

fn write_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.extend_from_slice(&(t.rank() as u32).to_le_bytes());
    for &d in t.shape() {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &v in t.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn read_u32(data: &[u8], pos: &mut usize) -> Result<u32> {
    let end = *pos + 4;
    if end > data.len() {
        return Err(NnError::CheckpointMismatch("truncated checkpoint".into()));
    }
    let v = u32::from_le_bytes(data[*pos..end].try_into().expect("length checked"));
    *pos = end;
    Ok(v)
}

/// Reads a tensor count, bounded by the bytes left: every tensor costs at
/// least its rank word, so a larger count is corrupt and is refused before
/// it sizes an allocation.
fn read_count(data: &[u8], pos: &mut usize) -> Result<usize> {
    let n = read_u32(data, pos)? as usize;
    if n > (data.len() - *pos) / 4 {
        return Err(NnError::CheckpointMismatch(format!(
            "tensor count {n} exceeds the {} bytes left",
            data.len() - *pos
        )));
    }
    Ok(n)
}

fn read_tensor(data: &[u8], pos: &mut usize) -> Result<Tensor> {
    let rank = read_u32(data, pos)? as usize;
    if rank > 8 {
        return Err(NnError::CheckpointMismatch(format!("absurd rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(read_u32(data, pos)? as usize);
    }
    // Every bound is checked before anything is allocated: a corrupt
    // header may claim dims whose product (or byte size) overflows.
    let len = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| NnError::CheckpointMismatch(format!("tensor dims {dims:?} overflow")))?;
    let end = len
        .checked_mul(4)
        .and_then(|bytes| pos.checked_add(bytes))
        .filter(|&end| end <= data.len())
        .ok_or_else(|| NnError::CheckpointMismatch("truncated tensor data".into()))?;
    let mut vals = Vec::with_capacity(len);
    for i in 0..len {
        let off = *pos + 4 * i;
        vals.push(f32::from_le_bytes(
            data[off..off + 4].try_into().expect("length checked"),
        ));
    }
    *pos = end;
    Tensor::from_vec(vals, &dims).map_err(NnError::Tensor)
}

/// Serializes a layer's parameters and buffers into bytes.
pub fn to_bytes<L: Layer + ?Sized>(layer: &mut L) -> Vec<u8> {
    let mut params: Vec<Tensor> = Vec::new();
    layer.visit_params(&mut |p| params.push(p.value.clone()));
    let mut buffers: Vec<Tensor> = Vec::new();
    layer.visit_buffers(&mut |b| buffers.push(b.clone()));

    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for t in &params {
        write_tensor(&mut out, t);
    }
    out.extend_from_slice(&(buffers.len() as u32).to_le_bytes());
    for t in &buffers {
        write_tensor(&mut out, t);
    }
    out
}

/// Restores a layer's parameters and buffers from bytes produced by
/// [`to_bytes`] on a structurally identical layer.
///
/// # Errors
///
/// Returns [`NnError::CheckpointMismatch`] when the magic, tensor counts or
/// shapes disagree with the target layer, or bytes follow the buffer
/// section.
pub fn from_bytes<L: Layer + ?Sized>(layer: &mut L, data: &[u8]) -> Result<()> {
    if data.len() < 8 || &data[..8] != MAGIC {
        return Err(NnError::CheckpointMismatch("bad magic".into()));
    }
    let mut pos = 8usize;
    let n_params = read_count(data, &mut pos)?;
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        params.push(read_tensor(data, &mut pos)?);
    }
    let n_buffers = read_count(data, &mut pos)?;
    let mut buffers = Vec::with_capacity(n_buffers);
    for _ in 0..n_buffers {
        buffers.push(read_tensor(data, &mut pos)?);
    }
    if pos != data.len() {
        return Err(NnError::CheckpointMismatch(format!(
            "{} trailing bytes after the buffer section",
            data.len() - pos
        )));
    }

    // Validate counts/shapes before mutating anything.
    let mut shapes_ok = true;
    let mut expected_params = 0usize;
    layer.visit_params(&mut |p| {
        if let Some(t) = params.get(expected_params) {
            shapes_ok &= t.shape() == p.value.shape();
        }
        expected_params += 1;
    });
    let mut expected_buffers = 0usize;
    layer.visit_buffers(&mut |b| {
        if let Some(t) = buffers.get(expected_buffers) {
            shapes_ok &= t.shape() == b.shape();
        }
        expected_buffers += 1;
    });
    if expected_params != n_params || expected_buffers != n_buffers || !shapes_ok {
        return Err(NnError::CheckpointMismatch(format!(
            "layer expects {expected_params} params / {expected_buffers} buffers with matching \
             shapes; checkpoint has {n_params} / {n_buffers}"
        )));
    }

    let mut i = 0usize;
    layer.visit_params(&mut |p| {
        p.value = params[i].clone();
        i += 1;
    });
    let mut j = 0usize;
    layer.visit_buffers(&mut |b| {
        *b = buffers[j].clone();
        j += 1;
    });
    Ok(())
}

/// Saves a layer checkpoint to a file, atomically and with an integrity
/// footer.
///
/// The bytes land in `<path>.tmp` first, are fsynced, and only then renamed
/// over `path`, so readers never observe a partially written checkpoint —
/// either the old file or the complete new one.
///
/// # Errors
///
/// Returns [`NnError::Io`] on filesystem errors.
pub fn save<L: Layer + ?Sized, P: AsRef<Path>>(layer: &mut L, path: P) -> Result<()> {
    let path = path.as_ref();
    let mut bytes = to_bytes(layer);
    append_footer(&mut bytes);
    let tmp = path.with_extension(match path.extension() {
        Some(ext) => format!("{}.tmp", ext.to_string_lossy()),
        None => "tmp".into(),
    });
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result.map_err(NnError::Io)
}

/// Loads a layer checkpoint from a file, validating its integrity footer.
///
/// # Errors
///
/// Returns [`NnError::Io`] on filesystem errors and
/// [`NnError::CheckpointMismatch`] on a missing footer and on checksum,
/// format or shape mismatches.
pub fn load<L: Layer + ?Sized, P: AsRef<Path>>(layer: &mut L, path: P) -> Result<()> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    from_bytes(layer, strip_footer(&bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, Conv2d, Sequential};
    use crate::Mode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = Sequential::new();
        s.push(Conv2d::new(2, 3, 3, 1, 1, true, &mut rng));
        s.push(BatchNorm2d::new(3));
        s
    }

    #[test]
    fn roundtrip_restores_exactly() {
        let mut a = small_net(1);
        // Move running stats away from the default.
        let x = leca_tensor::Tensor::rand_uniform(
            &[2, 2, 4, 4],
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(9),
        );
        a.forward(&x, Mode::Train).unwrap();
        let bytes = to_bytes(&mut a);

        let mut b = small_net(2);
        from_bytes(&mut b, &bytes).unwrap();
        let ya = a.forward(&x, Mode::Eval).unwrap();
        let yb = b.forward(&x, Mode::Eval).unwrap();
        assert_eq!(ya, yb, "restored net must be numerically identical");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut n = small_net(3);
        assert!(matches!(
            from_bytes(&mut n, b"NOTMAGIC"),
            Err(NnError::CheckpointMismatch(_))
        ));
        assert!(from_bytes(&mut n, &[]).is_err());
    }

    #[test]
    fn structural_mismatch_rejected() {
        let mut a = small_net(4);
        let bytes = to_bytes(&mut a);
        // Different architecture: one extra conv.
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = Sequential::new();
        b.push(Conv2d::new(2, 3, 3, 1, 1, true, &mut rng));
        assert!(from_bytes(&mut b, &bytes).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut a = small_net(6);
        let bytes = to_bytes(&mut a);
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = Sequential::new();
        b.push(Conv2d::new(2, 4, 3, 1, 1, true, &mut rng)); // 4 != 3 channels
        b.push(BatchNorm2d::new(4));
        assert!(from_bytes(&mut b, &bytes).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("leca_nn_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        let mut a = small_net(8);
        save(&mut a, &path).unwrap();
        let mut b = small_net(9);
        load(&mut b, &path).unwrap();
        let x = leca_tensor::Tensor::ones(&[1, 2, 4, 4]);
        assert_eq!(
            a.forward(&x, Mode::Eval).unwrap(),
            b.forward(&x, Mode::Eval).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let mut n = small_net(10);
        assert!(matches!(
            load(&mut n, "/definitely/not/a/file.bin"),
            Err(NnError::Io(_))
        ));
    }

    #[test]
    fn truncated_checkpoint_rejected() {
        let mut a = small_net(11);
        let bytes = to_bytes(&mut a);
        let mut b = small_net(12);
        assert!(from_bytes(&mut b, &bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn every_truncated_prefix_is_a_typed_error() {
        let mut a = small_net(20);
        let bytes = to_bytes(&mut a);
        let mut b = small_net(21);
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    from_bytes(&mut b, &bytes[..cut]),
                    Err(NnError::CheckpointMismatch(_))
                ),
                "prefix of {cut} bytes"
            );
        }
        from_bytes(&mut b, &bytes).unwrap();
    }

    #[test]
    fn huge_tensor_count_is_refused_before_allocating() {
        let mut data = MAGIC.to_vec();
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut n = small_net(22);
        assert!(matches!(
            from_bytes(&mut n, &data),
            Err(NnError::CheckpointMismatch(_))
        ));
    }

    #[test]
    fn overflowing_dims_are_refused() {
        let mut data = MAGIC.to_vec();
        data.extend_from_slice(&1u32.to_le_bytes());
        data.extend_from_slice(&4u32.to_le_bytes());
        for _ in 0..4 {
            data.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        let mut n = small_net(23);
        assert!(matches!(
            from_bytes(&mut n, &data),
            Err(NnError::CheckpointMismatch(_))
        ));
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn saved_file_carries_validating_footer() {
        let dir = std::env::temp_dir().join("leca_nn_footer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        let mut a = small_net(13);
        save(&mut a, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[bytes.len() - 4..], FOOTER_MAGIC);
        assert_eq!(
            strip_footer(&bytes).unwrap().len(),
            bytes.len() - FOOTER_LEN
        );
        assert!(
            !path.with_extension("bin.tmp").exists(),
            "temp file must not survive a successful save"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let dir = std::env::temp_dir().join("leca_nn_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        let mut a = small_net(14);
        save(&mut a, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut b = small_net(15);
        match load(&mut b, &path) {
            Err(NnError::CheckpointMismatch(msg)) => {
                assert!(msg.contains("checksum"), "unexpected message: {msg}")
            }
            other => panic!("bit flip must fail the checksum, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_fails_footer_length() {
        let dir = std::env::temp_dir().join("leca_nn_truncate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        let mut a = small_net(16);
        save(&mut a, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Drop bytes from the middle but keep the footer: the recorded
        // length no longer matches.
        let mut cut = bytes[..20].to_vec();
        cut.extend_from_slice(&bytes[bytes.len() - FOOTER_LEN..]);
        std::fs::write(&path, &cut).unwrap();
        let mut b = small_net(17);
        assert!(matches!(
            load(&mut b, &path),
            Err(NnError::CheckpointMismatch(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_truncated_by_one_byte_is_refused() {
        let dir = std::env::temp_dir().join("leca_nn_truncate_one_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        let mut a = small_net(18);
        save(&mut a, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let mut b = small_net(19);
        assert!(matches!(
            load(&mut b, &path),
            Err(NnError::CheckpointMismatch(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn footer_magic_and_payload_bit_flips_are_refused() {
        let dir = std::env::temp_dir().join("leca_nn_magic_flip_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        let mut a = small_net(24);
        save(&mut a, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (last, mid) = (bytes.len() - 1, bytes.len() / 2);
        bytes[last] ^= 0x01;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut b = small_net(25);
        let before = to_bytes(&mut b);
        assert!(matches!(
            load(&mut b, &path),
            Err(NnError::CheckpointMismatch(_))
        ));
        assert_eq!(to_bytes(&mut b), before, "a refused load changes nothing");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bytes_after_the_buffer_section_are_refused() {
        let mut a = small_net(26);
        let mut bytes = to_bytes(&mut a);
        bytes.push(0);
        let mut b = small_net(27);
        assert!(matches!(
            from_bytes(&mut b, &bytes),
            Err(NnError::CheckpointMismatch(_))
        ));
    }
}
