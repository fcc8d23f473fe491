//! Atomic checkpoint epochs: sealed parts, torn-epoch detection.
//!
//! A checkpoint epoch is a directory `{prefix}/ckpt/{epoch}/` holding one
//! snapshot part per node. A bare part write is *not* atomic with respect to
//! fail-stop crashes: a node dying mid-checkpoint leaves a part that decodes
//! (the simulated DFS never tears bytes) but does not represent a committed
//! epoch — loading it would resurrect state from a superstep the cluster
//! never collectively passed.
//!
//! This module makes the commit explicit. Each part is accompanied by a tiny
//! manifest record (the *seal*, at `{part}.ok`) written **last**, recording
//! the part's length and an FNV-1a checksum. A crash between the part write
//! and the seal write leaves the epoch detectably torn: the seal is missing
//! (or, for a corrupted store, fails verification), so loaders skip the
//! epoch and fall back to the most recent complete one.
//!
//! An epoch is *complete* when its roster — the sealed list of the nodes
//! that took part in it — verifies and every rostered node's part verifies
//! against its seal.
//!
//! Epochs come in two kinds. A **full** epoch's parts carry every master's
//! state; a **delta** epoch's parts carry only the vertices dirtied since
//! the previous epoch. The kind is recorded durably in the epoch's roster,
//! and [`recovery_chain`] selects what a loader must apply: the newest
//! complete full epoch (the *base*) plus every complete delta after it. A
//! torn delta part keeps its epoch permanently incomplete — exactly like a
//! torn full part — and a chain whose base epochs are all torn is reported
//! as *ungrounded* so the loader knows it must reconstruct the base from
//! initial state instead of trusting the deltas alone.

use std::fmt;
use std::sync::Arc;

use crate::Dfs;

/// Suffix appended to a part path to form its seal path.
pub const SEAL_SUFFIX: &str = ".ok";

const SEAL_MAGIC: u32 = 0x5345_414C; // "SEAL"
const SEAL_LEN: usize = 4 + 8 + 8;

/// Why a verified epoch read could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochError {
    /// No epoch under the prefix has a full set of verified parts.
    NoCompleteEpoch {
        /// The `{prefix}/ckpt/` namespace that was searched.
        prefix: String,
    },
    /// A specific part is missing, unsealed, or fails its checksum.
    TornPart {
        /// Path of the offending part.
        path: String,
    },
}

impl fmt::Display for EpochError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpochError::NoCompleteEpoch { prefix } => write!(
                f,
                "no complete checkpoint epoch under {prefix}/ckpt/ \
                 (zero sealed epochs — nothing to recover from)"
            ),
            EpochError::TornPart { path } => {
                write!(f, "checkpoint part {path} is torn (missing or bad seal)")
            }
        }
    }
}

impl std::error::Error for EpochError {}

/// What an epoch's parts carry, recorded durably in its roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// Every master's state — a self-contained recovery point.
    Full,
    /// Only the vertices dirtied since the previous epoch — must be applied
    /// on top of a base.
    Delta,
}

impl EpochKind {
    fn to_u8(self) -> u8 {
        match self {
            EpochKind::Full => 0,
            EpochKind::Delta => 1,
        }
    }

    fn from_u8(b: u8) -> Option<EpochKind> {
        match b {
            0 => Some(EpochKind::Full),
            1 => Some(EpochKind::Delta),
            _ => None,
        }
    }
}

/// The epoch sequence a loader must apply, ascending, with the loader's own
/// part of each: read and verified once, while the chain was judged.
///
/// `grounded` is true when the chain starts at a complete full epoch; when
/// false, every listed epoch is a delta and the loader must reconstruct the
/// base itself (initial state) — applying an ungrounded chain as if it were
/// self-contained is a refusal case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochChain {
    /// `(epoch, kind)` pairs to apply in order.
    pub epochs: Vec<(u64, EpochKind)>,
    /// The loader's verified part of each epoch, in the same order.
    pub parts: Vec<Arc<Vec<u8>>>,
    /// Whether `epochs` starts at a complete full (base) epoch.
    pub grounded: bool,
}

/// 64-bit FNV-1a over `bytes` — the per-part checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Path of node `node`'s part in `epoch` under `prefix`.
pub fn part_path(prefix: &str, epoch: u64, node: u32) -> String {
    format!("{prefix}/ckpt/{epoch}/{node}")
}

/// Path of the seal (per-part manifest record) for `part`.
pub fn seal_path(part: &str) -> String {
    format!("{part}{SEAL_SUFFIX}")
}

fn encode_seal(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEAL_LEN);
    out.extend_from_slice(&SEAL_MAGIC.to_le_bytes());
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(bytes).to_le_bytes());
    out
}

fn seal_matches(seal: &[u8], part: &[u8]) -> bool {
    if seal.len() != SEAL_LEN {
        return false;
    }
    let magic = u32::from_le_bytes(seal[0..4].try_into().expect("sliced"));
    let len = u64::from_le_bytes(seal[4..12].try_into().expect("sliced"));
    let sum = u64::from_le_bytes(seal[12..20].try_into().expect("sliced"));
    magic == SEAL_MAGIC && len == part.len() as u64 && sum == checksum(part)
}

/// Writes `bytes` at `path` and then commits them by writing the seal
/// **last** — the generic sealed-write primitive behind parts and rosters.
pub fn write_sealed(dfs: &Dfs, path: &str, bytes: Vec<u8>) {
    let seal = encode_seal(&bytes);
    dfs.write(path, bytes);
    dfs.write(&seal_path(path), seal);
}

/// Reads `path` and verifies it against its seal.
pub fn read_sealed(dfs: &Dfs, path: &str) -> Result<Arc<Vec<u8>>, EpochError> {
    let torn = || EpochError::TornPart {
        path: path.to_string(),
    };
    let bytes = dfs.read(path).ok_or_else(torn)?;
    let seal = dfs.read(&seal_path(path)).ok_or_else(torn)?;
    if seal_matches(&seal, &bytes) {
        Ok(bytes)
    } else {
        Err(torn())
    }
}

/// Writes a part and then commits it by writing its seal **last**.
pub fn write_part(dfs: &Dfs, prefix: &str, epoch: u64, node: u32, bytes: Vec<u8>) {
    write_sealed(dfs, &part_path(prefix, epoch, node), bytes);
}

/// Writes a part **without** its seal — the on-disk state left behind by a
/// node crashing between the data write and the manifest commit. Used by the
/// failure injector; loaders must treat the epoch as torn.
pub fn write_part_torn(dfs: &Dfs, prefix: &str, epoch: u64, node: u32, bytes: Vec<u8>) {
    dfs.write(&part_path(prefix, epoch, node), bytes);
}

/// Reads a part and verifies it against its seal.
pub fn read_verified(
    dfs: &Dfs,
    prefix: &str,
    epoch: u64,
    node: u32,
) -> Result<Arc<Vec<u8>>, EpochError> {
    read_sealed(dfs, &part_path(prefix, epoch, node))
}

/// Path of `epoch`'s roster record under `prefix`.
pub fn roster_path(prefix: &str, epoch: u64) -> String {
    format!("{prefix}/ckpt/{epoch}/roster")
}

/// Seals the membership roster of `epoch`: the node IDs whose parts
/// constitute the epoch.
///
/// Cluster membership shrinks across recovery episodes (migration leaves the
/// dead node's state on the survivors), so "every node's part verifies"
/// cannot be judged against a fixed node count. The leader of each epoch
/// records who participated; an epoch is then complete exactly when its
/// roster verifies **and** every rostered part verifies. The roster is
/// written with the same seal-last discipline as parts, so a leader dying
/// mid-roster leaves the epoch detectably torn rather than ambiguous.
///
/// The roster also records the epoch's [`EpochKind`], making full-vs-delta a
/// durable property of the epoch rather than something a loader must guess.
pub fn write_roster(dfs: &Dfs, prefix: &str, epoch: u64, kind: EpochKind, nodes: &[u32]) {
    let mut bytes = Vec::with_capacity(2 + nodes.len());
    bytes.push(kind.to_u8());
    crate::codec::write_uvarint(&mut bytes, nodes.len() as u64);
    for &n in nodes {
        crate::codec::write_uvarint(&mut bytes, u64::from(n));
    }
    write_sealed(dfs, &roster_path(prefix, epoch), bytes);
}

/// Reads and verifies `epoch`'s roster, returning its kind and node set.
pub fn read_roster(
    dfs: &Dfs,
    prefix: &str,
    epoch: u64,
) -> Result<(EpochKind, Vec<u32>), EpochError> {
    let path = roster_path(prefix, epoch);
    let bytes = read_sealed(dfs, &path)?;
    let torn = || EpochError::TornPart { path: path.clone() };
    // Strict decode: [kind:u8][uvarint count][uvarint node...]; any varint
    // error, count mismatch, overflow, or trailing byte is a torn roster.
    let mut r = crate::codec::Reader::new(&bytes);
    let kind = EpochKind::from_u8(r.take(1).map_err(|_| torn())?[0]).ok_or_else(torn)?;
    let count = crate::codec::read_uvarint(&mut r).map_err(|_| torn())?;
    if count > r.remaining() as u64 {
        return Err(torn());
    }
    let mut nodes = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let n = crate::codec::read_uvarint(&mut r).map_err(|_| torn())?;
        nodes.push(u32::try_from(n).map_err(|_| torn())?);
    }
    if r.remaining() > 0 {
        return Err(torn());
    }
    Ok((kind, nodes))
}

/// The base+delta chain node `node` should load: the newest complete full
/// epoch whose roster contains `node`, plus every complete later epoch
/// (deltas) in order, each with `node`'s part as it verified. Incomplete
/// epochs — torn parts, missing seals, stale rosters listing nodes that
/// never sealed a part — never appear in the chain.
///
/// When deltas exist but every full epoch they could ground on is torn, the
/// chain is returned with `grounded == false`: the loader must rebuild the
/// base from initial state, never apply the deltas as if self-contained.
/// (That case is safe here because an epoch only ends up incomplete when
/// its writer crashed mid-write, which forces a recovery that rewinds every
/// survivor to the last complete epoch — so the next delta's dirty set
/// covers everything since that epoch.)
pub fn recovery_chain(dfs: &Dfs, prefix: &str, node: u32) -> Result<EpochChain, EpochError> {
    let (mut epochs, mut parts) = (Vec::new(), Vec::new());
    for e in listed_epochs(dfs, prefix) {
        let Ok((kind, nodes)) = read_roster(dfs, prefix, e) else {
            continue;
        };
        let Some(own) = nodes.iter().position(|&n| n == node) else {
            continue;
        };
        // Complete by its own roster: every rostered node's part verifies
        // against its seal.
        let sealed: Result<Vec<_>, _> = nodes
            .iter()
            .map(|&n| read_verified(dfs, prefix, e, n))
            .collect();
        if let Ok(mut sealed) = sealed {
            epochs.push((e, kind));
            parts.push(sealed.swap_remove(own));
        }
    }
    if epochs.is_empty() {
        return Err(EpochError::NoCompleteEpoch {
            prefix: prefix.to_string(),
        });
    }
    let base = epochs
        .iter()
        .rposition(|&(_, kind)| kind == EpochKind::Full);
    let from = base.unwrap_or(0);
    Ok(EpochChain {
        epochs: epochs.split_off(from),
        parts: parts.split_off(from),
        grounded: base.is_some(),
    })
}

fn listed_epochs(dfs: &Dfs, prefix: &str) -> Vec<u64> {
    let dir = format!("{prefix}/ckpt/");
    let mut epochs: Vec<u64> = dfs
        .list(&dir)
        .iter()
        .filter_map(|p| p[dir.len()..].split('/').next()?.parse::<u64>().ok())
        .collect();
    epochs.sort_unstable();
    epochs.dedup();
    epochs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfsConfig;

    fn dfs() -> Dfs {
        Dfs::new(DfsConfig::instant())
    }

    /// Writes a complete epoch: every node's part plus a sealed roster.
    fn complete_epoch(d: &Dfs, prefix: &str, epoch: u64, kind: EpochKind, nodes: &[u32]) {
        for &n in nodes {
            write_part(d, prefix, epoch, n, vec![epoch as u8; 8]);
        }
        write_roster(d, prefix, epoch, kind, nodes);
    }

    /// The epochs of `node`'s recovery chain, none when no epoch is complete.
    fn chain_epochs(d: &Dfs, prefix: &str, node: u32) -> Vec<u64> {
        let chain = recovery_chain(d, prefix, node).map(|chain| chain.epochs);
        let epochs = chain.unwrap_or_default();
        epochs.into_iter().map(|(e, _)| e).collect()
    }

    #[test]
    fn sealed_epoch_round_trips() {
        let d = dfs();
        for n in 0..3 {
            write_part(&d, "ec", 4, n, vec![n as u8; 10]);
        }
        write_roster(&d, "ec", 4, EpochKind::Full, &[0, 1, 2]);
        assert_eq!(read_verified(&d, "ec", 4, 1).unwrap().as_ref(), &[1u8; 10]);
        assert_eq!(chain_epochs(&d, "ec", 1), [4]);
    }

    #[test]
    fn missing_seal_marks_epoch_torn() {
        let d = dfs();
        write_part(&d, "ec", 4, 0, vec![7; 4]);
        write_part(&d, "ec", 4, 1, vec![7; 4]);
        write_part_torn(&d, "ec", 4, 2, vec![7; 4]);
        write_roster(&d, "ec", 4, EpochKind::Full, &[0, 1, 2]);
        assert!(chain_epochs(&d, "ec", 0).is_empty());
        assert!(matches!(
            read_verified(&d, "ec", 4, 2),
            Err(EpochError::TornPart { .. })
        ));
    }

    #[test]
    fn corrupted_part_fails_checksum() {
        let d = dfs();
        write_part(&d, "ec", 2, 0, vec![1, 2, 3, 4]);
        // Overwrite the data after the seal committed — a bit-rot model.
        d.write(&part_path("ec", 2, 0), vec![1, 2, 3, 5]);
        assert!(matches!(
            read_verified(&d, "ec", 2, 0),
            Err(EpochError::TornPart { .. })
        ));
        // Truncation is likewise caught (length recorded in the seal).
        d.write(&part_path("ec", 2, 0), vec![1, 2, 3]);
        assert!(read_verified(&d, "ec", 2, 0).is_err());
    }

    #[test]
    fn loader_falls_back_to_newest_complete_epoch() {
        let d = dfs();
        complete_epoch(&d, "vc", 3, EpochKind::Full, &[0, 1]);
        complete_epoch(&d, "vc", 6, EpochKind::Full, &[0, 1]);
        // Epoch 9 is torn: node 1 died before sealing its part.
        write_part(&d, "vc", 9, 0, vec![9; 8]);
        write_part_torn(&d, "vc", 9, 1, vec![9; 8]);
        write_roster(&d, "vc", 9, EpochKind::Full, &[0, 1]);
        // Both nodes fall back to the newest complete epoch, 6; epoch 3 is
        // complete too, as the deltas of a chain grounded on it show.
        assert_eq!(chain_epochs(&d, "vc", 0), [6]);
        assert_eq!(chain_epochs(&d, "vc", 1), [6]);
        write_roster(&d, "vc", 6, EpochKind::Delta, &[0, 1]);
        assert_eq!(chain_epochs(&d, "vc", 0), [3, 6]);
    }

    #[test]
    fn zero_complete_epochs_is_a_clear_error() {
        let d = dfs();
        let err = recovery_chain(&d, "ec", 0).unwrap_err();
        assert!(matches!(err, EpochError::NoCompleteEpoch { .. }));
        assert!(err.to_string().contains("no complete checkpoint epoch"));

        // A lone torn epoch still yields the same clear error, not a decode
        // attempt on the torn bytes — rostered or not.
        write_part_torn(&d, "ec", 5, 0, vec![0xFF; 16]);
        for rostered in [false, true] {
            if rostered {
                write_roster(&d, "ec", 5, EpochKind::Full, &[0]);
            }
            assert!(matches!(
                recovery_chain(&d, "ec", 0),
                Err(EpochError::NoCompleteEpoch { .. })
            ));
        }
    }

    #[test]
    fn node_set_variants_ignore_dead_nodes() {
        let d = dfs();
        // Epoch 3 was sealed by all of {0, 1, 2}; then node 2 died and the
        // shrunken cluster {0, 1} sealed epoch 6 alone.
        complete_epoch(&d, "ec", 3, EpochKind::Full, &[0, 1, 2]);
        for n in 0..2 {
            write_part(&d, "ec", 6, n, vec![6; 8]);
        }
        // Against the full node set, epoch 6 is torn — the dead node never
        // sealed a part of it; against the survivor set it is the newest
        // complete epoch.
        write_roster(&d, "ec", 6, EpochKind::Full, &[0, 1, 2]);
        assert_eq!(chain_epochs(&d, "ec", 0), [3]);
        write_roster(&d, "ec", 6, EpochKind::Full, &[0, 1]);
        assert_eq!(chain_epochs(&d, "ec", 0), [6]);
        assert_eq!(chain_epochs(&d, "ec", 1), [6]);
        // A loader that still needs the dead node's part must fall back.
        assert_eq!(chain_epochs(&d, "ec", 2), [3]);
    }

    #[test]
    fn roster_round_trips_and_gates_completeness() {
        let d = dfs();
        for n in 0..3 {
            write_part(&d, "ec", 5, n, vec![5; 8]);
        }
        // Parts sealed but no roster yet: not complete.
        assert!(chain_epochs(&d, "ec", 0).is_empty());
        write_roster(&d, "ec", 5, EpochKind::Full, &[0, 1, 2]);
        assert_eq!(
            read_roster(&d, "ec", 5),
            Ok((EpochKind::Full, vec![0, 1, 2]))
        );
        assert_eq!(chain_epochs(&d, "ec", 0), [5]);
    }

    #[test]
    fn rostered_epoch_with_missing_part_is_torn() {
        let d = dfs();
        write_part(&d, "ec", 2, 0, vec![2; 8]);
        write_part_torn(&d, "ec", 2, 1, vec![2; 8]);
        write_roster(&d, "ec", 2, EpochKind::Full, &[0, 1]);
        // Torn for the node that sealed its own part too.
        for node in [0, 1] {
            assert!(matches!(
                recovery_chain(&d, "ec", node),
                Err(EpochError::NoCompleteEpoch { .. })
            ));
        }
    }

    #[test]
    fn shrinking_roster_tracks_membership() {
        let d = dfs();
        // Epoch 3 written by {0, 1, 2}; node 2 then dies and {0, 1} write
        // epoch 6 with a two-node roster.
        complete_epoch(&d, "ec", 3, EpochKind::Full, &[0, 1, 2]);
        complete_epoch(&d, "ec", 6, EpochKind::Delta, &[0, 1]);
        // Both epochs are complete, each by its own roster.
        assert_eq!(chain_epochs(&d, "ec", 0), [3, 6]);
        assert_eq!(chain_epochs(&d, "ec", 2), [3]);
    }

    #[test]
    fn truncated_roster_bytes_are_torn() {
        let d = dfs();
        write_roster(&d, "ec", 1, EpochKind::Full, &[0, 1]);
        // Corrupt the roster body after sealing: count says 2, one id.
        write_sealed(&d, &roster_path("ec", 1), vec![0u8, 2, 0]);
        assert!(matches!(
            read_roster(&d, "ec", 1),
            Err(EpochError::TornPart { .. })
        ));
        // An unknown kind byte is equally torn, not silently defaulted.
        write_sealed(&d, &roster_path("ec", 1), vec![9u8, 1, 0]);
        assert!(read_roster(&d, "ec", 1).is_err());
        // Trailing bytes after the rostered ids are torn too.
        write_sealed(&d, &roster_path("ec", 1), vec![0u8, 1, 0, 5]);
        assert!(read_roster(&d, "ec", 1).is_err());
        // A node id that overflows u32 is torn, not truncated.
        let mut wide = vec![0u8, 1];
        crate::codec::write_uvarint(&mut wide, u64::from(u32::MAX) + 1);
        write_sealed(&d, &roster_path("ec", 1), wide);
        assert!(read_roster(&d, "ec", 1).is_err());
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum(&[1, 2, 3]), checksum(&[3, 2, 1]));
        assert_ne!(checksum(&[]), checksum(&[0]));
    }

    #[test]
    fn chain_is_base_plus_deltas() {
        let d = dfs();
        complete_epoch(&d, "ec", 2, EpochKind::Full, &[0, 1]);
        complete_epoch(&d, "ec", 4, EpochKind::Delta, &[0, 1]);
        complete_epoch(&d, "ec", 6, EpochKind::Delta, &[0, 1]);
        let chain = recovery_chain(&d, "ec", 0).unwrap();
        assert!(chain.grounded);
        assert_eq!(
            chain.epochs,
            vec![
                (2, EpochKind::Full),
                (4, EpochKind::Delta),
                (6, EpochKind::Delta)
            ]
        );
    }

    #[test]
    fn periodic_full_epoch_bounds_the_chain() {
        let d = dfs();
        complete_epoch(&d, "ec", 2, EpochKind::Full, &[0, 1]);
        complete_epoch(&d, "ec", 4, EpochKind::Delta, &[0, 1]);
        complete_epoch(&d, "ec", 10, EpochKind::Full, &[0, 1]);
        complete_epoch(&d, "ec", 12, EpochKind::Delta, &[0, 1]);
        let chain = recovery_chain(&d, "ec", 0).unwrap();
        assert!(chain.grounded);
        // The newest full epoch grounds the chain; older history is dead
        // weight the loader never touches.
        assert_eq!(
            chain.epochs,
            vec![(10, EpochKind::Full), (12, EpochKind::Delta)]
        );
    }

    #[test]
    fn torn_delta_part_keeps_epoch_out_of_the_chain() {
        let d = dfs();
        complete_epoch(&d, "ec", 2, EpochKind::Full, &[0, 1]);
        // Node 1 died between its delta part write and the seal.
        write_part(&d, "ec", 4, 0, vec![4; 8]);
        write_part_torn(&d, "ec", 4, 1, vec![4; 8]);
        write_roster(&d, "ec", 4, EpochKind::Delta, &[0, 1]);
        complete_epoch(&d, "ec", 6, EpochKind::Delta, &[0, 1]);
        let chain = recovery_chain(&d, "ec", 0).unwrap();
        assert_eq!(
            chain.epochs,
            vec![(2, EpochKind::Full), (6, EpochKind::Delta)]
        );
    }

    #[test]
    fn delta_chain_with_torn_base_is_ungrounded() {
        let d = dfs();
        // The only full epoch tore mid-write; later deltas sealed fine.
        write_part_torn(&d, "ec", 2, 0, vec![2; 8]);
        write_roster(&d, "ec", 2, EpochKind::Full, &[0]);
        complete_epoch(&d, "ec", 4, EpochKind::Delta, &[0]);
        complete_epoch(&d, "ec", 6, EpochKind::Delta, &[0]);
        let chain = recovery_chain(&d, "ec", 0).unwrap();
        // The loader must NOT treat the deltas as self-contained: the chain
        // says so explicitly, and the torn base never appears in it.
        assert!(!chain.grounded);
        assert_eq!(
            chain.epochs,
            vec![(4, EpochKind::Delta), (6, EpochKind::Delta)]
        );
    }

    #[test]
    fn the_chain_carries_the_parts_it_verified() {
        let d = dfs();
        for (epoch, kind) in [(2, EpochKind::Full), (4, EpochKind::Delta)] {
            for n in 0..2u32 {
                write_part(&d, "ec", epoch, n, vec![epoch as u8 * 10 + n as u8; 8]);
            }
            write_roster(&d, "ec", epoch, kind, &[0, 1]);
        }
        // An epoch node 1 took no part in: its roster is read, no part of it.
        complete_epoch(&d, "ec", 6, EpochKind::Delta, &[0]);
        let before = d.stats().reads.messages;
        let chain = recovery_chain(&d, "ec", 1).unwrap();
        // Two epochs of a roster and two parts, one of a roster, every read
        // with its seal: each part is read once, to verify it.
        assert_eq!(d.stats().reads.messages - before, 2 * (2 * 3 + 1));
        assert_eq!(chain.epochs, [(2, EpochKind::Full), (4, EpochKind::Delta)]);
        let verified = |&(e, _): &(u64, EpochKind)| read_verified(&d, "ec", e, 1).unwrap();
        let want: Vec<_> = chain.epochs.iter().map(verified).collect();
        assert_eq!(chain.parts, want);
        assert_eq!(*chain.parts[1], [41u8; 8]);
    }

    #[test]
    fn stale_roster_refuses_to_serve_the_epoch() {
        let d = dfs();
        complete_epoch(&d, "ec", 2, EpochKind::Full, &[0, 1, 2]);
        // Epoch 4's roster still lists node 2 (stale membership), but node
        // 2 died and never sealed a part: the epoch must never load.
        write_part(&d, "ec", 4, 0, vec![4; 8]);
        write_part(&d, "ec", 4, 1, vec![4; 8]);
        write_roster(&d, "ec", 4, EpochKind::Delta, &[0, 1, 2]);
        let chain = recovery_chain(&d, "ec", 0).unwrap();
        assert_eq!(chain.epochs, vec![(2, EpochKind::Full)]);
    }

    #[test]
    fn chain_membership_is_per_node() {
        let d = dfs();
        complete_epoch(&d, "ec", 2, EpochKind::Full, &[0, 1, 2]);
        // Node 2 died; the survivors' later epochs exclude it.
        complete_epoch(&d, "ec", 4, EpochKind::Delta, &[0, 1]);
        let survivors = recovery_chain(&d, "ec", 0).unwrap();
        assert_eq!(
            survivors.epochs,
            vec![(2, EpochKind::Full), (4, EpochKind::Delta)]
        );
        // A loader reconstructing the dead node's partition only sees the
        // epochs that node participated in.
        let dead = recovery_chain(&d, "ec", 2).unwrap();
        assert_eq!(dead.epochs, vec![(2, EpochKind::Full)]);
        assert!(matches!(
            recovery_chain(&d, "ec", 7),
            Err(EpochError::NoCompleteEpoch { .. })
        ));
    }
}
