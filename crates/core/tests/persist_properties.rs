//! Property tests for the snapshot persistence layer: serialization must
//! be lossless for arbitrary finite parameters, and *any* single-byte
//! corruption of a snapshot must be detected and surface as a typed
//! error (the service treats it as a cache miss) — never a panic, and
//! never a silently different model.

use memodel::service::persist::{decode, encode, fnv64, ModelSnapshot, SnapshotStore};
use memodel::{MicroarchParams, ModelParams};
use pmu::{MachineId, Suite};
use proptest::prelude::*;

/// Builds a snapshot from raw strategy outputs: the header's
/// `(fingerprint, digest, records)` and the fit's `(interval_cap,
/// objective)`. Machine/suite pick by index so every name length (and
/// the pooled empty-suite encoding) is exercised.
fn snapshot_from(
    which: u64,
    (fingerprint, digest, records): (u64, u64, u64),
    arch: &[f64],
    b: &[f64],
    (interval_cap, objective): (f64, f64),
) -> ModelSnapshot {
    let machine = MachineId::ALL[(which % 3) as usize];
    let suite = [None, Some(Suite::Cpu2000), Some(Suite::Cpu2006)][((which / 3) % 3) as usize];
    ModelSnapshot {
        machine,
        suite,
        options_fingerprint: fingerprint,
        records_digest: digest,
        records: records as u32,
        arch: MicroarchParams::new(arch[0], arch[1], arch[2], arch[3], arch[4]),
        params: ModelParams::from_slice(b),
        interval_cap,
        objective,
    }
}

proptest! {
    /// encode → decode is the identity for arbitrary finite parameter
    /// sets — including negative exponents, tiny magnitudes, and every
    /// machine/suite combination. Bit-exact: floats travel as raw LE
    /// bytes, so no precision is shed.
    #[test]
    fn snapshot_round_trip_is_lossless(
        which in 0u64..9,
        fingerprint in 0u64..u64::MAX,
        digest in 0u64..u64::MAX,
        records in 0u64..100_000,
        arch in prop::collection::vec(1e-3f64..1e4, 5),
        b in prop::collection::vec(-1e9f64..1e9, 10),
        interval_cap in 1e-6f64..1e9,
        objective in 0.0f64..1e12,
    ) {
        let snap = snapshot_from(
            which, (fingerprint, digest, records), &arch, &b, (interval_cap, objective),
        );
        let bytes = encode(&snap);
        let back = decode(&bytes).expect("pristine bytes decode");
        prop_assert_eq!(&back, &snap);
        // Lossless means bit-identical bytes on re-encode, too.
        prop_assert_eq!(encode(&back), bytes);
    }

    /// Flipping any single byte anywhere in the file — magic, header,
    /// names, parameters, or the checksum itself — is detected: decode
    /// returns an error. It must never panic, and never return Ok (an
    /// undetected corruption could serve wrong model parameters).
    #[test]
    fn any_single_byte_corruption_is_detected(
        which in 0u64..9,
        fingerprint in 0u64..u64::MAX,
        digest in 0u64..u64::MAX,
        b in prop::collection::vec(-1e6f64..1e6, 10),
        position in 0usize..10_000,
        flip in 1u64..256,
    ) {
        let snap = snapshot_from(
            which, (fingerprint, digest, 48),
            &[4.0, 14.0, 19.0, 169.0, 30.0], &b, (256.0, 0.5),
        );
        let mut bytes = encode(&snap);
        let index = position % bytes.len();
        bytes[index] ^= flip as u8;
        prop_assert!(
            decode(&bytes).is_err(),
            "flip 0x{flip:02x} at byte {index} went undetected"
        );
    }

    /// The store round-trips through real files, and a corrupted file is
    /// a miss for the service (typed Corrupt error from load), not a
    /// panic and not a hit.
    #[test]
    fn corrupted_store_files_load_as_misses(
        b in prop::collection::vec(-1e6f64..1e6, 10),
        position in 0usize..10_000,
        flip in 1u64..256,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "cpis_prop_{}_{position}_{flip}",
            std::process::id()
        ));
        let store = SnapshotStore::open(&dir).expect("temp store opens");
        let snap = snapshot_from(
            1, (7, 9, 48), &[4.0, 14.0, 19.0, 169.0, 30.0], &b, (256.0, 0.5),
        );
        let path = store.save(&snap).expect("save");
        let loaded = store
            .load(snap.machine, snap.suite, snap.options_fingerprint, snap.records_digest)
            .expect("pristine file loads");
        prop_assert_eq!(loaded.as_ref(), Some(&snap));
        // Corrupt one byte on disk: the next load must reject it.
        let mut bytes = std::fs::read(&path).expect("read back");
        let index = position % bytes.len();
        bytes[index] ^= flip as u8;
        std::fs::write(&path, &bytes).expect("write corrupt");
        let result = store.load(
            snap.machine,
            snap.suite,
            snap.options_fingerprint,
            snap.records_digest,
        );
        prop_assert!(
            result.is_err(),
            "corrupt file served as {result:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The checksum itself: FNV-1a distinguishes any two byte streams
    /// that differ in one byte (every round is injective in the running
    /// state), which is what makes the corruption guarantee above hold.
    #[test]
    fn fnv64_separates_single_byte_differences(
        data in prop::collection::vec(0u64..256, 1..128),
        position in 0usize..10_000,
        flip in 1u64..256,
    ) {
        let bytes: Vec<u8> = data.iter().map(|v| *v as u8).collect();
        let mut other = bytes.clone();
        let index = position % other.len();
        other[index] ^= flip as u8;
        prop_assert!(fnv64(&bytes) != fnv64(&other));
    }
}
