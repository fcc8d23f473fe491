//! Property tests: the binary codec round-trips arbitrary nested values,
//! counts what it writes, and rejects corruption; the DFS behaves like a
//! shared store under concurrent use; damaged epoch parts and rosters
//! read back as errors.

use proptest::prelude::*;

use imitator_storage::codec::{decode, Decode, DecodeError, Encode};
use imitator_storage::epoch::{self, EpochError, EpochKind};
use imitator_storage::{Dfs, DfsConfig};

/// Round-trips `v`, and holds the counting sink to the buffer: what a
/// value is charged is what it writes.
fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) -> Result<(), TestCaseError> {
    let bytes = v.to_bytes();
    prop_assert_eq!(v.encoded_len(), bytes.len());
    let back: T = decode(&bytes).map_err(|e| TestCaseError::fail(format!("{e}")))?;
    prop_assert_eq!(&back, v);
    Ok(())
}

proptest! {
    #[test]
    fn ints_roundtrip(a in any::<u64>(), b in any::<i32>(), c in any::<u16>()) {
        roundtrip(&a)?;
        roundtrip(&b)?;
        roundtrip(&c)?;
        roundtrip(&(a, b, c))?;
    }

    #[test]
    fn floats_roundtrip_bitwise(x in any::<f64>(), y in any::<f32>()) {
        // NaNs break PartialEq; compare bit patterns instead.
        let back: f64 = decode(&x.to_bytes()).unwrap();
        prop_assert_eq!(back.to_bits(), x.to_bits());
        let back: f32 = decode(&y.to_bytes()).unwrap();
        prop_assert_eq!(back.to_bits(), y.to_bits());
        prop_assert_eq!((x, y, Some(x)).encoded_len(), 8 + 4 + 9);
    }

    #[test]
    fn nested_containers_roundtrip(
        v in proptest::collection::vec(
            (any::<u32>(), proptest::option::of(any::<bool>()), ".*"),
            0..50
        ),
        w in proptest::collection::vec((any::<usize>(), any::<i8>(), any::<u64>()), 0..20),
    ) {
        roundtrip(&v)?;
        roundtrip(&w)?;
        roundtrip(&(w.len(), ()))?;
    }

    #[test]
    fn truncation_never_panics_and_always_errors(
        v in proptest::collection::vec(any::<u64>(), 1..50),
        cut_frac in 0.0f64..1.0
    ) {
        let bytes = v.to_bytes();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let result = decode::<Vec<u64>>(&bytes[..cut]);
        prop_assert!(result.is_err(), "truncated decode must fail");
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Any of these may error; none may panic.
        let _ = decode::<Vec<(u32, f32)>>(&bytes);
        let _ = decode::<String>(&bytes);
        let _ = decode::<Vec<Option<u64>>>(&bytes);
    }

    #[test]
    fn dfs_stores_what_was_written(
        files in proptest::collection::hash_map("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 0..100), 0..20)
    ) {
        let dfs = Dfs::new(DfsConfig::instant());
        for (k, v) in &files {
            dfs.write(k, v.clone());
        }
        for (k, v) in &files {
            let content = dfs.read(k).unwrap();
            prop_assert_eq!(content.as_ref(), v);
        }
        prop_assert_eq!(dfs.list("").len(), files.len());
        prop_assert_eq!(dfs.used_bytes(), files.values().map(Vec::len).sum::<usize>());
    }
}

/// One way a stored file goes bad.
#[derive(Debug, Clone)]
enum Damage {
    Truncate(usize),
    FlipBit(usize, u8),
    /// A copy of `len` bytes from `from` inserted at `to`.
    Splice {
        from: usize,
        to: usize,
        len: usize,
    },
    /// A byte replaced by a varint (2^49 − 1) no input can back: a decoder
    /// that reserved what such a count claims would abort the test.
    Inflate(usize),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::Truncate),
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Damage::FlipBit(at, bit)),
        (any::<usize>(), any::<usize>(), 1usize..24).prop_map(|(from, to, len)| Damage::Splice {
            from,
            to,
            len
        }),
        any::<usize>().prop_map(Damage::Inflate),
    ]
}

fn damaged(mut bytes: Vec<u8>, damage: &[Damage]) -> Vec<u8> {
    for d in damage {
        let n = bytes.len();
        if n == 0 {
            break;
        }
        match *d {
            Damage::Truncate(at) => bytes.truncate(at % n),
            Damage::FlipBit(at, bit) => bytes[at % n] ^= 1 << bit,
            Damage::Splice { from, to, len } => {
                let from = from % n;
                let run = bytes[from..(from + len).min(n)].to_vec();
                let to = to % n;
                bytes.splice(to..to, run);
            }
            Damage::Inflate(at) => {
                let at = at % n;
                bytes.splice(at..=at, [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
            }
        }
    }
    bytes
}

fn torn<T>(read: Result<T, EpochError>) -> bool {
    matches!(read, Err(EpochError::TornPart { .. }))
}

proptest! {
    /// A checkpoint epoch read back off the DFS is input like any other. A
    /// part damaged anywhere or in its trailer alone, and a roster damaged
    /// before or after its trailer is written — truncated, bit-flipped,
    /// spliced, count-inflated — read back as an `EpochError` unless the
    /// damage left the bytes as they were: never a panic, never a node list
    /// larger than the bytes that name it, and never a damaged part in a
    /// recovery chain.
    #[test]
    fn hostile_epoch_bytes_never_panic(
        nodes in proptest::collection::vec(any::<u32>(), 0..40),
        delta in any::<bool>(),
        part in proptest::collection::vec(any::<u8>(), 1..200),
        damage in proptest::collection::vec(arb_damage(), 1..4),
    ) {
        let dfs = Dfs::new(DfsConfig::instant());

        let path = epoch::part_path("ec", 2, 0);
        epoch::write_part(&dfs, "ec", 2, 0, part.clone());
        let file = dfs.read(&path).expect("written").to_vec();
        let bad = damaged(file.clone(), &damage);
        dfs.write(&path, bad.clone());
        prop_assert!(bad == file || torn(epoch::read_sealed(&dfs, &path)));
        let (body, trailer) = file.split_at(part.len());
        let bad = [body, &damaged(trailer.to_vec(), &damage)].concat();
        dfs.write(&path, bad.clone());
        prop_assert!(bad == file || torn(epoch::read_sealed(&dfs, &path)));

        let kind = if delta { EpochKind::Delta } else { EpochKind::Full };
        epoch::write_roster(&dfs, "ec", 2, kind, &nodes);
        prop_assert_eq!(epoch::read_roster(&dfs, "ec", 2), Ok((kind, nodes.clone())));
        let roster_path = epoch::roster_path("ec", 2);
        let roster = dfs.read(&roster_path).expect("written").to_vec();
        let bad = damaged(roster.clone(), &damage);
        dfs.write(&roster_path, bad.clone());
        prop_assert!(bad == roster || torn(epoch::read_roster(&dfs, "ec", 2)));
        epoch::write_sealed(&dfs, &roster_path, bad.clone());
        if let Ok((_, back)) = epoch::read_roster(&dfs, "ec", 2) {
            prop_assert!(back.capacity() <= bad.len(), "{} nodes from {} B", back.len(), bad.len());
        }
        // Whatever the roster now says, node 0's part, trailer-damaged,
        // never enters its chain unless the damage left it whole.
        let chain = epoch::recovery_chain(&dfs, "ec", 0);
        prop_assert!(file == dfs.read(&path).expect("written").to_vec() || chain.is_err());
    }
}

#[test]
fn concurrent_writers_to_distinct_paths() {
    let dfs = Dfs::new(DfsConfig::instant());
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let dfs = dfs.clone();
            std::thread::spawn(move || {
                for i in 0..50 {
                    dfs.write(&format!("t{t}/f{i}"), vec![t as u8; i]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(dfs.list("").len(), 400);
    for t in 0..8 {
        assert_eq!(dfs.list(&format!("t{t}/")).len(), 50);
    }
}

#[test]
fn decode_error_classification() {
    // Wrong discriminants are Corrupt, short buffers are UnexpectedEof.
    assert!(matches!(decode::<bool>(&[7]), Err(DecodeError::Corrupt(_))));
    assert!(matches!(
        decode::<u32>(&[1, 2]),
        Err(DecodeError::UnexpectedEof { .. })
    ));
}
