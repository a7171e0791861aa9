//! On-disk checkpoint caching.
//!
//! Experiments re-use one pre-trained (then frozen) backbone across many
//! LeCA trainings, exactly as the paper re-uses the PyTorch-pretrained
//! ResNets. Checkpoints land in `$LECA_CACHE_DIR` (default `.leca-cache/`
//! under the current directory).

use crate::Result as LecaResult;
use leca_nn::Layer;
use std::path::PathBuf;

/// The checkpoint directory (created on demand).
pub fn cache_dir() -> PathBuf {
    leca_tensor::runtime_env::raw("LECA_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(".leca-cache"))
}

/// Path of a named checkpoint.
pub fn checkpoint_path(tag: &str) -> PathBuf {
    cache_dir().join(format!("{tag}.leca.bin"))
}

/// Loads `layer` from the named checkpoint if present; otherwise runs
/// `train`, saves the result, and returns whether training ran.
///
/// # Errors
///
/// Propagates training and I/O errors (a corrupt/mismatched checkpoint is
/// discarded and retrained, not an error).
pub fn load_or_train<L, F>(layer: &mut L, tag: &str, train: F) -> LecaResult<bool>
where
    L: Layer + ?Sized,
    F: FnOnce(&mut L) -> LecaResult<()>,
{
    let path = checkpoint_path(tag);
    if path.exists() {
        match leca_nn::serialize::load(layer, &path) {
            Ok(()) => return Ok(false),
            Err(e) => {
                // A corrupt or mismatched checkpoint is a deliberate
                // retrain, not a silent one: say why the cache was ignored.
                eprintln!(
                    "leca-cache: discarding unusable checkpoint {} ({e}); retraining",
                    path.display()
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }
    train(layer)?;
    std::fs::create_dir_all(cache_dir()).map_err(leca_nn::NnError::Io)?;
    leca_nn::serialize::save(layer, &path)?;
    Ok(true)
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the test points LECA_CACHE_DIR at a temporary directory"
)]
mod tests {
    use super::*;
    use leca_nn::layers::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cache_roundtrip_and_mismatch() {
        // One test covers every scenario because LECA_CACHE_DIR is a
        // process-global environment variable (parallel tests would race).
        let dir = std::env::temp_dir().join(format!("leca_cache_test_{}", std::process::id()));
        std::env::set_var("LECA_CACHE_DIR", &dir);

        // Scenario 1: first call trains, second loads.
        let tag = "unit-test-linear";
        std::fs::remove_file(checkpoint_path(tag)).ok();
        let mut rng = StdRng::seed_from_u64(0);
        let mut a = Linear::new(3, 2, &mut rng);
        let trained = load_or_train(&mut a, tag, |l| {
            l.visit_params(&mut |p| p.value.fill(0.25));
            Ok(())
        })
        .unwrap();
        assert!(trained, "first call must train");
        let mut b = Linear::new(3, 2, &mut rng);
        let trained = load_or_train(&mut b, tag, |_| {
            panic!("second call must load from cache");
        })
        .unwrap();
        assert!(!trained);
        let mut vals = Vec::new();
        b.visit_params(&mut |p| vals.push(p.value.as_slice()[0]));
        assert!(vals.iter().all(|&v| v == 0.25));

        // Scenario 2: a structurally mismatched checkpoint retrains.
        let tag2 = "unit-test-mismatch";
        std::fs::remove_file(checkpoint_path(tag2)).ok();
        let mut small = Linear::new(2, 2, &mut rng);
        load_or_train(&mut small, tag2, |_| Ok(())).unwrap();
        let mut big = Linear::new(5, 5, &mut rng);
        let trained = load_or_train(&mut big, tag2, |l| {
            l.visit_params(&mut |p| p.value.fill(1.0));
            Ok(())
        })
        .unwrap();
        assert!(trained);

        // Scenario 3: a corrupted checkpoint (flipped payload byte) is
        // detected, discarded, retrained and cleanly overwritten.
        let tag3 = "unit-test-corrupt";
        std::fs::remove_file(checkpoint_path(tag3)).ok();
        let mut c = Linear::new(3, 2, &mut rng);
        load_or_train(&mut c, tag3, |l| {
            l.visit_params(&mut |p| p.value.fill(0.5));
            Ok(())
        })
        .unwrap();
        let path3 = checkpoint_path(tag3);
        let mut bytes = std::fs::read(&path3).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path3, &bytes).unwrap();
        let mut d = Linear::new(3, 2, &mut rng);
        let trained = load_or_train(&mut d, tag3, |l| {
            l.visit_params(&mut |p| p.value.fill(0.75));
            Ok(())
        })
        .unwrap();
        assert!(trained, "corrupt checkpoint must retrain");
        let mut vals = Vec::new();
        d.visit_params(&mut |p| vals.push(p.value.as_slice()[0]));
        assert!(vals.iter().all(|&v| v == 0.75));
        // The rewritten file is valid again and loads on the next call.
        let mut e = Linear::new(3, 2, &mut rng);
        let trained = load_or_train(&mut e, tag3, |_| {
            panic!("rewritten checkpoint must load");
        })
        .unwrap();
        assert!(!trained);

        // Scenario 4: a truncated checkpoint also retrains.
        let truncated = std::fs::read(&path3).unwrap();
        std::fs::write(&path3, &truncated[..truncated.len() / 3]).unwrap();
        let mut f = Linear::new(3, 2, &mut rng);
        let trained = load_or_train(&mut f, tag3, |l| {
            l.visit_params(&mut |p| p.value.fill(0.1));
            Ok(())
        })
        .unwrap();
        assert!(trained, "truncated checkpoint must retrain");

        // Scenario 5: a footer-less file whose parameter count claims
        // u32::MAX tensors is refused for its missing integrity footer,
        // then discarded and retrained: no abort, no panic. (The count
        // bound itself is `serialize`'s own unit test.)
        let mut bomb = b"LECAWT01".to_vec();
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path3, &bomb).unwrap();
        let mut g = Linear::new(3, 2, &mut rng);
        let trained = load_or_train(&mut g, tag3, |l| {
            l.visit_params(&mut |p| p.value.fill(0.2));
            Ok(())
        })
        .unwrap();
        assert!(trained, "a u32::MAX parameter count must retrain");
        let mut vals = Vec::new();
        g.visit_params(&mut |p| vals.push(p.value.as_slice()[0]));
        assert!(vals.iter().all(|&v| v == 0.2));

        std::fs::remove_dir_all(&dir).ok();
        std::env::remove_var("LECA_CACHE_DIR");
    }
}
