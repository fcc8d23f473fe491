//! Atomic checkpoint epochs: a part is one file, and the barrier commits.
//!
//! A checkpoint epoch is a directory `{prefix}/ckpt/{epoch}/` holding one
//! part per node and, once the epoch is committed, its roster. Writing one
//! is a two-phase commit whose vote is the global barrier:
//!
//! * **prepare** — inside the barrier window each node writes its part as
//!   one file: the snapshot, then a 20-byte trailer (magic, the snapshot's
//!   length and its FNV-1a checksum) in the same write;
//! * **commit** — only once the leave barrier returns clean, so that every
//!   node's part has landed, the leader writes the epoch's roster: its
//!   [`EpochKind`] and the nodes that took part, under the same trailer.
//!
//! A node that dies before the barrier fails it, so no roster is written
//! and the epoch stays uncommitted; whatever part it left behind — whole,
//! or torn by a crash mid-write ([`write_part_torn`]) — is never read. An
//! epoch is committed exactly when its roster exists, so a loader trusts a
//! roster and reads no part but its own: an epoch costs N + 1 writes, and a
//! link of a recovery chain two reads.
//!
//! Epochs come in two kinds. A **full** epoch's parts carry every master's
//! state; a **delta** epoch's parts carry only the vertices dirtied since
//! the previous epoch. [`recovery_chain`] walks the committed rosters from
//! newest to oldest, skipping the epochs that do not list the loader's
//! node, until it reaches a full one (the *base*), and then reads the
//! node's part of every epoch it kept. When no full epoch lists the node
//! the chain is the deltas alone, which a loader applies over the initial
//! state: a full epoch only stays uncommitted when a node died writing it,
//! which rewinds every survivor to the last committed epoch, so the next
//! delta's dirty set covers everything since then.
//!
//! The DFS never tears a write, so a roster or an own part in a committed
//! epoch whose trailer fails is corruption: an error naming the file, never
//! a silent fall-back to an older epoch.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::Dfs;

const TRAILER_MAGIC: u32 = 0x5345_414C; // "SEAL"
const TRAILER_LEN: usize = 4 + 8 + 8;

/// Why a checkpoint read could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochError {
    /// No epoch under the prefix that lists the node is committed.
    NoCommittedEpoch {
        /// The `{prefix}/ckpt/` namespace that was searched.
        prefix: String,
    },
    /// A specific part or roster is missing, or fails its trailer.
    TornPart {
        /// Path of the offending file.
        path: String,
    },
}

impl fmt::Display for EpochError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpochError::NoCommittedEpoch { prefix } => write!(
                f,
                "no committed checkpoint epoch under {prefix}/ckpt/ \
                 (zero rosters name the node — nothing to recover from)"
            ),
            EpochError::TornPart { path } => {
                write!(f, "checkpoint file {path} is torn (missing or bad trailer)")
            }
        }
    }
}

impl std::error::Error for EpochError {}

/// What an epoch's parts carry, recorded durably in its roster (as the
/// discriminant's byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EpochKind {
    /// Every master's state — a self-contained recovery point.
    Full = 0,
    /// Only the vertices dirtied since the previous epoch — must be applied
    /// on top of a base.
    Delta = 1,
}

/// A file whose trailer verified, read as the bytes its writer sealed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed(Arc<Vec<u8>>);

impl Deref for Sealed {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0[..self.0.len() - TRAILER_LEN]
    }
}

/// The epoch sequence a loader must apply, ascending, with the loader's own
/// part of each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochChain {
    /// `(epoch, kind)` pairs to apply in order.
    pub epochs: Vec<(u64, EpochKind)>,
    /// The loader's part of each epoch, in the same order.
    pub parts: Vec<Sealed>,
}

/// 64-bit FNV-1a over `bytes` — the trailer's checksum.
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

/// Path of `epoch`'s roster under `prefix`.
pub fn roster_path(prefix: &str, epoch: u64) -> String {
    format!("{prefix}/ckpt/{epoch}/roster")
}

/// Writes `bytes` at `path` followed by their trailer, in one operation:
/// the primitive behind parts and rosters.
pub fn write_sealed(dfs: &Dfs, path: &str, mut bytes: Vec<u8>) {
    let (len, sum) = (bytes.len() as u64, checksum(&bytes));
    bytes.reserve_exact(TRAILER_LEN);
    bytes.extend_from_slice(&TRAILER_MAGIC.to_le_bytes());
    bytes.extend_from_slice(&len.to_le_bytes());
    bytes.extend_from_slice(&sum.to_le_bytes());
    dfs.write(path, bytes);
}

/// Reads `path` and verifies its trailer against the bytes before it.
pub fn read_sealed(dfs: &Dfs, path: &str) -> Result<Sealed, EpochError> {
    let torn = || EpochError::TornPart {
        path: path.to_string(),
    };
    let file = dfs.read(path).ok_or_else(torn)?;
    let body = file.len().checked_sub(TRAILER_LEN).ok_or_else(torn)?;
    let (bytes, trailer) = file.split_at(body);
    let word = |at: usize| u64::from_le_bytes(trailer[at..at + 8].try_into().expect("sliced"));
    let magic = u32::from_le_bytes(trailer[0..4].try_into().expect("sliced"));
    if magic == TRAILER_MAGIC && word(4) == body as u64 && word(12) == checksum(bytes) {
        Ok(Sealed(file))
    } else {
        Err(torn())
    }
}

/// Writes node `node`'s part of `epoch`, trailer included: the prepare
/// step, before the barrier that votes on the epoch.
pub fn write_part(dfs: &Dfs, prefix: &str, epoch: u64, node: u32, bytes: Vec<u8>) {
    write_sealed(dfs, &part_path(prefix, epoch, node), bytes);
}

/// Writes a part **without** its trailer — the file a node crashing
/// mid-write leaves behind. Used by the failure injector; the node's death
/// fails the barrier, so the epoch is never committed and the file never
/// read.
pub fn write_part_torn(dfs: &Dfs, prefix: &str, epoch: u64, node: u32, bytes: Vec<u8>) {
    dfs.write(&part_path(prefix, epoch, node), bytes);
}

/// Commits `epoch` by writing its roster: its [`EpochKind`] and the nodes
/// whose parts constitute it. Written by the leader once the barrier after
/// the parts returned clean, so every listed part exists.
///
/// Cluster membership shrinks across recovery episodes (migration leaves
/// the dead node's state on the survivors), so the roster records who took
/// part; the kind makes full-vs-delta a durable property of the epoch
/// rather than something a loader must guess.
pub fn write_roster(dfs: &Dfs, prefix: &str, epoch: u64, kind: EpochKind, nodes: &[u32]) {
    let mut bytes = Vec::with_capacity(2 + nodes.len() + TRAILER_LEN);
    bytes.push(kind as u8);
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
    let kind = match r.take(1).map_err(|_| torn())?[0] {
        0 => EpochKind::Full,
        1 => EpochKind::Delta,
        _ => return Err(torn()),
    };
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

/// The chain node `node` loads: the newest committed full epoch whose
/// roster lists `node`, then every later committed epoch that lists it, in
/// order, each with `node`'s part. Reads the rosters walked back from the
/// newest to the base, and the node's own parts; no epoch older than the
/// base and no other node's part. With no full epoch listing `node`, the
/// chain is its deltas alone (see the module doc).
///
/// # Errors
///
/// [`EpochError::NoCommittedEpoch`] when no committed epoch lists `node`;
/// [`EpochError::TornPart`] when a walked roster or one of the node's parts
/// is missing or fails its trailer.
pub fn recovery_chain(dfs: &Dfs, prefix: &str, node: u32) -> Result<EpochChain, EpochError> {
    let mut epochs = Vec::new();
    for e in committed_epochs(dfs, prefix).into_iter().rev() {
        let (kind, nodes) = read_roster(dfs, prefix, e)?;
        if nodes.contains(&node) {
            epochs.push((e, kind));
            if kind == EpochKind::Full {
                break;
            }
        }
    }
    if epochs.is_empty() {
        return Err(EpochError::NoCommittedEpoch {
            prefix: prefix.to_string(),
        });
    }
    epochs.reverse();
    let parts = epochs
        .iter()
        .map(|&(e, _)| read_sealed(dfs, &part_path(prefix, e, node)))
        .collect::<Result<_, _>>()?;
    Ok(EpochChain { epochs, parts })
}

/// The epochs under `prefix` that have a roster, ascending: the committed
/// ones. A listing, not a read.
fn committed_epochs(dfs: &Dfs, prefix: &str) -> Vec<u64> {
    let dir = format!("{prefix}/ckpt/");
    let rosters = dfs.list(&dir);
    let mut epochs: Vec<u64> = rosters
        .iter()
        .filter_map(|p| p[dir.len()..].strip_suffix("/roster")?.parse().ok())
        .collect();
    epochs.sort_unstable();
    epochs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfsConfig;
    use EpochKind::{Delta, Full};

    fn dfs() -> Dfs {
        Dfs::new(DfsConfig::instant())
    }

    /// The part node `n` writes in `epoch`: its bytes name both.
    fn part(epoch: u64, n: u32) -> Vec<u8> {
        vec![epoch as u8 * 10 + n as u8; 8]
    }

    /// Writes a committed epoch: every node's part, then the roster.
    fn committed(d: &Dfs, prefix: &str, epoch: u64, kind: EpochKind, nodes: &[u32]) {
        for &n in nodes {
            write_part(d, prefix, epoch, n, part(epoch, n));
        }
        write_roster(d, prefix, epoch, kind, nodes);
    }

    /// Writes an epoch whose node `torn` died mid-write: the others' parts,
    /// its torn one, and no roster — the barrier failed.
    fn uncommitted(d: &Dfs, prefix: &str, epoch: u64, nodes: &[u32], torn: u32) {
        for &n in nodes.iter().filter(|&&n| n != torn) {
            write_part(d, prefix, epoch, n, part(epoch, n));
        }
        write_part_torn(d, prefix, epoch, torn, part(epoch, torn));
    }

    /// The epochs of `node`'s recovery chain, none when no epoch is
    /// committed.
    fn chain_epochs(d: &Dfs, prefix: &str, node: u32) -> Vec<u64> {
        let chain = recovery_chain(d, prefix, node).map(|chain| chain.epochs);
        let epochs = chain.unwrap_or_default();
        epochs.into_iter().map(|(e, _)| e).collect()
    }

    fn torn<T>(read: Result<T, EpochError>, path: &str) -> bool {
        read.err() == Some(EpochError::TornPart { path: path.into() })
    }

    #[test]
    fn committed_epoch_round_trips() {
        let d = dfs();
        committed(&d, "ec", 4, Full, &[0, 1, 2]);
        let path = part_path("ec", 4, 1);
        assert_eq!(*read_sealed(&d, &path).unwrap(), part(4, 1)[..]);
        // One file a part, its trailer inside: 8 bytes and 20.
        assert_eq!(d.read(&path).unwrap().len(), 8 + TRAILER_LEN);
        assert_eq!(d.list("ec/ckpt/4/").len(), 4);
        assert_eq!(chain_epochs(&d, "ec", 1), [4]);
    }

    #[test]
    fn a_torn_write_fails_its_trailer() {
        let d = dfs();
        write_part_torn(&d, "ec", 4, 2, vec![7; 40]);
        let path = part_path("ec", 4, 2);
        assert!(torn(read_sealed(&d, &path), &path));
        // Shorter than a trailer, or absent: torn the same way.
        write_part_torn(&d, "ec", 4, 2, vec![7; 4]);
        assert!(torn(read_sealed(&d, &path), &path));
        assert!(torn(read_sealed(&d, "ec/ckpt/4/3"), "ec/ckpt/4/3"));
    }

    #[test]
    fn corrupted_part_fails_checksum() {
        let d = dfs();
        write_part(&d, "ec", 2, 0, vec![1, 2, 3, 4]);
        let path = part_path("ec", 2, 0);
        // Flip a body byte after the write — a bit-rot model.
        let mut file = d.read(&path).unwrap().to_vec();
        file[3] ^= 1;
        d.write(&path, file.clone());
        assert!(torn(read_sealed(&d, &path), &path));
        // Truncation is likewise caught (the length is in the trailer).
        file[3] ^= 1;
        file.remove(0);
        d.write(&path, file);
        assert!(torn(read_sealed(&d, &path), &path));
    }

    #[test]
    fn loader_falls_back_to_newest_committed_epoch() {
        let d = dfs();
        committed(&d, "vc", 3, Full, &[0, 1]);
        committed(&d, "vc", 6, Full, &[0, 1]);
        // Epoch 9 never committed: node 1 died mid-write.
        uncommitted(&d, "vc", 9, &[0, 1], 1);
        assert_eq!(chain_epochs(&d, "vc", 0), [6]);
        assert_eq!(chain_epochs(&d, "vc", 1), [6]);
        // Epoch 3 is committed too, as a chain grounded on it shows.
        write_roster(&d, "vc", 6, Delta, &[0, 1]);
        assert_eq!(chain_epochs(&d, "vc", 0), [3, 6]);
    }

    #[test]
    fn zero_committed_epochs_is_a_clear_error() {
        let d = dfs();
        let err = recovery_chain(&d, "ec", 0).unwrap_err();
        assert!(matches!(err, EpochError::NoCommittedEpoch { .. }));
        assert!(err.to_string().contains("no committed checkpoint epoch"));
        // An uncommitted epoch yields the same error, not a read of its
        // parts, torn or whole.
        uncommitted(&d, "ec", 5, &[0, 1], 1);
        let reads = d.stats().reads.messages;
        assert_eq!(recovery_chain(&d, "ec", 0), Err(err));
        assert_eq!(d.stats().reads.messages, reads);
    }

    #[test]
    fn roster_round_trips_and_commits_the_epoch() {
        let d = dfs();
        for n in 0..3 {
            write_part(&d, "ec", 5, n, vec![5; 8]);
        }
        // Every part written, but no roster yet: not committed.
        assert!(chain_epochs(&d, "ec", 0).is_empty());
        write_roster(&d, "ec", 5, Full, &[0, 1, 2]);
        assert_eq!(read_roster(&d, "ec", 5), Ok((Full, vec![0, 1, 2])));
        assert_eq!(chain_epochs(&d, "ec", 0), [5]);
    }

    #[test]
    fn a_crash_before_the_barrier_leaves_the_epoch_uncommitted() {
        let d = dfs();
        committed(&d, "ec", 2, Full, &[0, 1, 2]);
        // Node 2 died mid-write of epoch 4: its peers' parts landed, the
        // barrier failed, and the leader wrote no roster.
        uncommitted(&d, "ec", 4, &[0, 1, 2], 2);
        for node in 0..3 {
            assert_eq!(chain_epochs(&d, "ec", node), [2], "node {node}");
        }
    }

    #[test]
    fn a_committed_epochs_own_part_that_fails_is_an_error_naming_it() {
        let path = part_path("ec", 4, 1);
        let flip = |d: &Dfs| {
            let mut file = d.read(&path).unwrap().to_vec();
            file[0] ^= 1;
            d.write(&path, file);
        };
        let cut = |d: &Dfs| d.write(&path, vec![41; 3]);
        let torn_write = |d: &Dfs| write_part_torn(d, "ec", 4, 1, part(4, 1));
        for damage in [&flip as &dyn Fn(&Dfs), &cut, &torn_write] {
            let d = dfs();
            committed(&d, "ec", 2, Full, &[0, 1]);
            committed(&d, "ec", 4, Delta, &[0, 1]);
            damage(&d);
            // Node 1 is told which file, never handed epoch 2 alone; node
            // 0 reads only its own parts and is served.
            assert!(torn(recovery_chain(&d, "ec", 1), &path));
            assert_eq!(chain_epochs(&d, "ec", 0), [2, 4]);
            // A corrupt roster is as loud, for every node that walks it.
            d.write(&roster_path("ec", 4), vec![1, 2, 0, 1]);
            for node in [0, 1] {
                assert!(torn(recovery_chain(&d, "ec", node), &roster_path("ec", 4)));
            }
        }
        // A listed part that is missing names its path the same way.
        let d = dfs();
        committed(&d, "ec", 2, Full, &[0]);
        write_roster(&d, "ec", 2, Full, &[0, 1]);
        assert!(torn(recovery_chain(&d, "ec", 1), &part_path("ec", 2, 1)));
    }

    #[test]
    fn shrinking_roster_tracks_membership() {
        let d = dfs();
        // Epoch 3 written by {0, 1, 2}; node 2 then dies and {0, 1} write
        // epoch 6 with a two-node roster.
        committed(&d, "ec", 3, Full, &[0, 1, 2]);
        committed(&d, "ec", 6, Delta, &[0, 1]);
        // Both epochs are committed, each by its own roster.
        assert_eq!(chain_epochs(&d, "ec", 0), [3, 6]);
        assert_eq!(chain_epochs(&d, "ec", 2), [3]);
    }

    #[test]
    fn truncated_roster_bytes_are_torn() {
        let d = dfs();
        write_roster(&d, "ec", 1, Full, &[0, 1]);
        // Corrupt the roster body under a valid trailer: count 2, one id.
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
        committed(&d, "ec", 2, Full, &[0, 1]);
        committed(&d, "ec", 4, Delta, &[0, 1]);
        committed(&d, "ec", 6, Delta, &[0, 1]);
        let chain = recovery_chain(&d, "ec", 0).unwrap();
        assert_eq!(chain.epochs, [(2, Full), (4, Delta), (6, Delta)]);
    }

    #[test]
    fn periodic_full_epoch_bounds_the_chain() {
        let d = dfs();
        committed(&d, "ec", 2, Full, &[0, 1]);
        committed(&d, "ec", 4, Delta, &[0, 1]);
        committed(&d, "ec", 10, Full, &[0, 1]);
        committed(&d, "ec", 12, Delta, &[0, 1]);
        let chain = recovery_chain(&d, "ec", 0).unwrap();
        // The newest full epoch grounds the chain; older history is dead
        // weight the loader never touches.
        assert_eq!(chain.epochs, [(10, Full), (12, Delta)]);
    }

    #[test]
    fn an_uncommitted_delta_stays_out_of_the_chain() {
        let d = dfs();
        committed(&d, "ec", 2, Full, &[0, 1]);
        uncommitted(&d, "ec", 4, &[0, 1], 1);
        committed(&d, "ec", 6, Delta, &[0, 1]);
        let chain = recovery_chain(&d, "ec", 0).unwrap();
        assert_eq!(chain.epochs, [(2, Full), (6, Delta)]);
    }

    #[test]
    fn with_no_committed_full_epoch_the_chain_is_its_deltas() {
        let d = dfs();
        // The only full epoch never committed; later deltas did.
        uncommitted(&d, "ec", 2, &[0], 0);
        committed(&d, "ec", 4, Delta, &[0]);
        committed(&d, "ec", 6, Delta, &[0]);
        // The loader applies them over the initial state; the uncommitted
        // base never appears.
        let chain = recovery_chain(&d, "ec", 0).unwrap();
        assert_eq!(chain.epochs, [(4, Delta), (6, Delta)]);
    }

    /// An epoch is N + 1 writes, and a chain reads the rosters it walks
    /// back to its base plus the loader's own parts: the same at two nodes
    /// and at eight, and nothing of the epochs before the base.
    #[test]
    fn the_chain_reads_the_rosters_it_walks_and_its_own_parts() {
        for n in [2u32, 8] {
            let d = dfs();
            let nodes: Vec<u32> = (0..n).collect();
            let epochs = [(4, Full), (8, Delta), (12, Full), (16, Delta), (20, Delta)];
            for (e, kind) in epochs {
                let writes = d.stats().writes.messages;
                committed(&d, "ec", e, kind, &nodes);
                assert_eq!(d.stats().writes.messages - writes, u64::from(n) + 1);
            }
            // An epoch node 1 took no part in: its roster is walked, no
            // part of it read.
            committed(&d, "ec", 24, Delta, &[0]);
            let reads = d.stats().reads.messages;
            let chain = recovery_chain(&d, "ec", 1).unwrap();
            // Rosters 24, 20, 16 and 12; node 1's parts of 12, 16 and 20.
            assert_eq!(d.stats().reads.messages - reads, 4 + 3, "n={n}");
            assert_eq!(chain.epochs, [(12, Full), (16, Delta), (20, Delta)]);
            let parts: Vec<&[u8]> = chain.parts.iter().map(|p| &p[..]).collect();
            assert_eq!(parts, [&part(12, 1)[..], &part(16, 1), &part(20, 1)]);
        }
        // `pr_ec_ckpt`'s crash at superstep 10: four nodes, a full epoch 4
        // and a delta 8 — two rosters and two parts.
        let d = dfs();
        committed(&d, "ec", 4, Full, &[0, 1, 2, 3]);
        committed(&d, "ec", 8, Delta, &[0, 1, 2, 3]);
        let reads = d.stats().reads.messages;
        assert_eq!(chain_epochs(&d, "ec", 2), [4, 8]);
        assert_eq!(d.stats().reads.messages - reads, 4);
    }

    #[test]
    fn chain_membership_is_per_node() {
        let d = dfs();
        committed(&d, "ec", 2, Full, &[0, 1, 2]);
        // Node 2 died; the survivors' later epochs exclude it.
        committed(&d, "ec", 4, Delta, &[0, 1]);
        let survivors = recovery_chain(&d, "ec", 0).unwrap();
        assert_eq!(survivors.epochs, [(2, Full), (4, Delta)]);
        // A loader reconstructing the dead node's partition only sees the
        // epochs that node participated in.
        let dead = recovery_chain(&d, "ec", 2).unwrap();
        assert_eq!(dead.epochs, [(2, Full)]);
        assert!(matches!(
            recovery_chain(&d, "ec", 7),
            Err(EpochError::NoCommittedEpoch { .. })
        ));
    }
}
