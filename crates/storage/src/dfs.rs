//! The simulated distributed file system.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use imitator_metrics::{AtomicCommStats, CommStats};
use parking_lot::RwLock;

use crate::codec::{locate_sections, DecodeError};

/// Cost model for the simulated DFS.
///
/// The defaults model an HDFS-like store on a 1 GigE cluster, scaled to the
/// repository's graph sizes: every operation pays a fixed latency, and bytes
/// move at a finite bandwidth with writes amplified by the replication
/// factor (HDFS default 3). The paper's observation that "HDFS is more
/// friendly to writing large data" (§2.3.1) falls out of the fixed latency
/// dominating small writes.
///
/// Reading one section of a sectioned file ([`Dfs::read_section`]) is one
/// open followed by preads of its section table and of the section: one
/// operation, charged the latency and the bytes of both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DfsConfig {
    /// Fixed cost per operation (open + metadata + commit round trips).
    pub latency: Duration,
    /// Sustained transfer rate in bytes/second for a single stream.
    pub bandwidth_bytes_per_sec: f64,
    /// Write amplification: each byte written is stored this many times.
    pub replication: u32,
}

impl DfsConfig {
    /// A cost-free configuration for unit tests.
    pub fn instant() -> Self {
        DfsConfig {
            latency: Duration::ZERO,
            bandwidth_bytes_per_sec: f64::INFINITY,
            replication: 3,
        }
    }

    /// The default "HDFS on 1 GigE" model used by the experiment harnesses.
    ///
    /// 5 ms per operation, 120 MB/s streams, 3-way replication. At the
    /// repository's scaled-down graph sizes this keeps DFS traffic orders of
    /// magnitude slower than in-memory channels — the same ratio the paper's
    /// testbed exhibits between HDFS and RAM.
    pub fn hdfs_like() -> Self {
        DfsConfig {
            latency: Duration::from_millis(5),
            bandwidth_bytes_per_sec: 120.0 * 1024.0 * 1024.0,
            replication: 3,
        }
    }

    fn write_cost(&self, len: usize) -> Duration {
        self.latency + self.transfer(len.saturating_mul(self.replication as usize))
    }

    fn read_cost(&self, len: usize) -> Duration {
        self.latency + self.transfer(len)
    }

    fn transfer(&self, bytes: usize) -> Duration {
        if self.bandwidth_bytes_per_sec.is_infinite() || bytes == 0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
        }
    }
}

impl Default for DfsConfig {
    fn default() -> Self {
        Self::hdfs_like()
    }
}

/// Byte/operation counters for a [`Dfs`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DfsStats {
    /// Completed write operations and bytes (pre-amplification).
    pub writes: CommStats,
    /// Completed read operations and bytes.
    pub reads: CommStats,
}

/// A shared, cost-modelled key→bytes store standing in for HDFS.
///
/// Cloning a `Dfs` yields another handle on the same store, like mounting
/// the same file system from another machine. All handles observe writes
/// immediately after the writing call returns (single-writer-per-path is the
/// usage pattern; last write wins).
///
/// # Examples
///
/// ```
/// use imitator_storage::{Dfs, DfsConfig};
///
/// let dfs = Dfs::new(DfsConfig::instant());
/// dfs.write("a/b", vec![9]);
/// assert!(dfs.exists("a/b"));
/// assert_eq!(dfs.list("a/").len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dfs {
    config: DfsConfig,
    files: Arc<RwLock<BTreeMap<String, Arc<Vec<u8>>>>>,
    stats: Arc<AtomicCommStats>,
    read_stats: Arc<AtomicCommStats>,
}

impl Dfs {
    /// Creates an empty store with the given cost model.
    pub fn new(config: DfsConfig) -> Self {
        Dfs {
            config,
            files: Arc::default(),
            stats: Arc::default(),
            read_stats: Arc::default(),
        }
    }

    /// The active cost model.
    pub fn config(&self) -> DfsConfig {
        self.config
    }

    /// Writes `bytes` to `path`, replacing any existing content. Blocks for
    /// the modelled write cost (latency + amplified transfer time).
    pub fn write(&self, path: &str, bytes: Vec<u8>) {
        let cost = self.config.write_cost(bytes.len());
        self.stats.record(1, bytes.len() as u64);
        std::thread::sleep(cost);
        self.files.write().insert(path.to_owned(), Arc::new(bytes));
    }

    /// Reads the content at `path`, or `None` if absent. Blocks for the
    /// modelled read cost when the file exists.
    pub fn read(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        let content = self.files.read().get(path).cloned()?;
        self.read_stats.record(1, content.len() as u64);
        std::thread::sleep(self.config.read_cost(content.len()));
        Some(content)
    }

    /// Reads section `i` of the sectioned file at `path`
    /// ([`crate::codec::join_sections`]), or `None` if the file is absent.
    /// One operation, counted as one read of the table's bytes and the
    /// section's; an index past the table reads as an empty section.
    ///
    /// # Errors
    ///
    /// The inner result is a [`DecodeError`] when the file's section table
    /// does not add up to the file; the operation is still paid, and
    /// counted with no bytes.
    pub fn read_section(&self, path: &str, i: usize) -> Option<Result<Vec<u8>, DecodeError>> {
        let file = self.files.read().get(path).cloned()?;
        let section = locate_sections(&file).map(|sections| {
            let table = sections.first().map_or(file.len(), |s| s.start);
            let section = sections.get(i).map_or(&[][..], |s| &file[s.clone()]);
            (table + section.len(), section.to_vec())
        });
        let read = section.as_ref().map_or(0, |&(read, _)| read);
        self.read_stats.record(1, read as u64);
        std::thread::sleep(self.config.read_cost(read));
        Some(section.map(|(_, section)| section))
    }

    /// Whether `path` exists. Free (metadata is cached client-side).
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// All paths starting with `prefix`, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Total bytes currently stored (pre-amplification).
    pub fn used_bytes(&self) -> usize {
        self.files.read().values().map(|v| v.len()).sum()
    }

    /// Operation counters since creation.
    pub fn stats(&self) -> DfsStats {
        DfsStats {
            writes: self.stats.snapshot(),
            reads: self.read_stats.snapshot(),
        }
    }

    /// Writes `bytes` to `path` behind the caller: a client thread of its
    /// own makes the same [`Dfs::write`] call the caller would have made —
    /// it hides the write's latency behind the caller's work, it does not
    /// buy the client a second stream. [`WriteBehind::wait`] (or dropping
    /// the handle) blocks until the file is on the store.
    pub fn write_behind(&self, path: String, bytes: Vec<u8>) -> WriteBehind {
        let dfs = self.clone();
        WriteBehind(Some(std::thread::spawn(move || dfs.write(&path, bytes))))
    }

    /// Reads `extents` ahead of the caller: a client thread of its own makes
    /// the same [`Dfs::read`] and [`Dfs::read_section`] calls, in order and
    /// one at a time, and the returned iterator hands each over as it lands
    /// (absent files are skipped, as free as a read that finds nothing).
    /// Dropping the iterator stops the reader after the read it is on.
    pub fn read_ahead(&self, extents: Vec<Extent>) -> ReadAhead {
        let dfs = self.clone();
        let (landed, files) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let read = |extent: Extent| match extent {
                Extent::Whole(path) => dfs.read(&path).map(Ok),
                Extent::Section(path, i) => Some(dfs.read_section(&path, i)?.map(Arc::new)),
            };
            for file in extents.into_iter().filter_map(read) {
                if landed.send(file).is_err() {
                    break;
                }
            }
        });
        ReadAhead {
            files: Some(files),
            reader: Some(reader),
        }
    }
}

/// What one read of a [`Dfs::read_ahead`] takes: a whole file, or one
/// section of a sectioned file ([`Dfs::read_section`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extent {
    /// The file at this path.
    Whole(String),
    /// Section `.1` of the sectioned file at path `.0`.
    Section(String, usize),
}

/// A file on its way to the store behind the caller ([`Dfs::write_behind`]).
/// Dropping the handle waits for it too.
#[derive(Debug)]
pub struct WriteBehind(Option<JoinHandle<()>>);

impl WriteBehind {
    /// Blocks until the file is on the store.
    pub fn wait(mut self) {
        if let Some(writer) = self.0.take() {
            writer.join().expect("write-behind thread panicked");
        }
    }
}

impl Drop for WriteBehind {
    fn drop(&mut self) {
        if let Some(writer) = self.0.take() {
            // A panic here would abort a process that is already unwinding.
            let _ = writer.join();
        }
    }
}

/// Files and sections on their way from the store ahead of the caller
/// ([`Dfs::read_ahead`]): yields them in the order asked for, blocking while
/// the next one has not landed — a section whose file's table does not add
/// up as the error [`Dfs::read_section`] returns.
#[derive(Debug)]
pub struct ReadAhead {
    files: Option<mpsc::Receiver<Result<Arc<Vec<u8>>, DecodeError>>>,
    reader: Option<JoinHandle<()>>,
}

impl Iterator for ReadAhead {
    type Item = Result<Arc<Vec<u8>>, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.files.as_ref()?.recv().ok()
    }
}

impl Drop for ReadAhead {
    fn drop(&mut self) {
        // Hanging up first makes the reader's next hand-over fail, so the
        // join below waits for at most the one read in flight.
        self.files = None;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::joined;

    #[test]
    fn write_read_roundtrip() {
        let dfs = Dfs::new(DfsConfig::instant());
        dfs.write("x", vec![1, 2, 3]);
        assert_eq!(dfs.read("x").unwrap().as_ref(), &[1, 2, 3]);
        assert!(dfs.read("y").is_none());
    }

    #[test]
    fn handles_share_state() {
        let a = Dfs::new(DfsConfig::instant());
        let b = a.clone();
        a.write("k", vec![7]);
        assert!(b.exists("k"));
        b.write("k", vec![8]);
        assert_eq!(a.read("k").unwrap().as_ref(), &[8]);
    }

    #[test]
    fn last_write_wins() {
        let dfs = Dfs::new(DfsConfig::instant());
        dfs.write("k", vec![1]);
        dfs.write("k", vec![2]);
        assert_eq!(dfs.read("k").unwrap().as_ref(), &[2]);
    }

    #[test]
    fn list_respects_prefix_and_order() {
        let dfs = Dfs::new(DfsConfig::instant());
        dfs.write("ckpt/2/n1", vec![]);
        dfs.write("ckpt/10/n0", vec![]);
        dfs.write("meta/n0", vec![]);
        assert_eq!(dfs.list("ckpt/"), vec!["ckpt/10/n0", "ckpt/2/n1"]);
        assert_eq!(dfs.list("zzz").len(), 0);
    }

    #[test]
    fn stats_count_operations() {
        let dfs = Dfs::new(DfsConfig::instant());
        dfs.write("a", vec![0; 100]);
        dfs.read("a");
        dfs.read("a");
        let s = dfs.stats();
        assert_eq!(s.writes, CommStats::new(1, 100));
        assert_eq!(s.reads, CommStats::new(2, 200));
    }

    #[test]
    fn used_bytes_tracks_contents() {
        let dfs = Dfs::new(DfsConfig::instant());
        dfs.write("a", vec![0; 10]);
        dfs.write("b", vec![0; 5]);
        assert_eq!(dfs.used_bytes(), 15);
        dfs.write("a", vec![0; 2]);
        assert_eq!(dfs.used_bytes(), 7);
    }

    #[test]
    fn cost_model_charges_writes_more_than_reads() {
        let cfg = DfsConfig {
            latency: Duration::from_micros(10),
            bandwidth_bytes_per_sec: 1e6,
            replication: 3,
        };
        assert!(cfg.write_cost(1_000_000) > cfg.read_cost(1_000_000));
        assert_eq!(DfsConfig::instant().write_cost(1 << 30), Duration::ZERO);
    }

    #[test]
    fn write_cost_is_measurable() {
        let cfg = DfsConfig {
            latency: Duration::from_millis(3),
            bandwidth_bytes_per_sec: f64::INFINITY,
            replication: 3,
        };
        let dfs = Dfs::new(cfg);
        let t = std::time::Instant::now();
        dfs.write("slow", vec![1]);
        assert!(t.elapsed() >= Duration::from_millis(3));
    }

    fn slow(latency_ms: u64) -> Dfs {
        Dfs::new(DfsConfig {
            latency: Duration::from_millis(latency_ms),
            bandwidth_bytes_per_sec: f64::INFINITY,
            replication: 3,
        })
    }

    #[test]
    fn a_write_behind_pays_one_write_and_counts_like_write() {
        let (behind, blocking) = (slow(5), slow(5));
        let t = std::time::Instant::now();
        let handle = behind.write_behind("p/0".into(), vec![3; 10]);
        handle.wait();
        assert!(t.elapsed() >= Duration::from_millis(5));
        blocking.write("p/0", vec![3; 10]);
        assert_eq!(behind.stats(), blocking.stats());
        assert_eq!(behind.read("p/0"), blocking.read("p/0"));
    }

    #[test]
    fn dropping_a_write_behind_waits_for_it() {
        let dfs = slow(3);
        drop(dfs.write_behind("a".into(), vec![1]));
        assert_eq!(dfs.list(""), vec!["a"]);
    }

    /// A section read is one operation of the table's bytes and the
    /// section's, whatever the file holds besides; an index past the table
    /// is an empty section, an absent file nothing at all, and a table that
    /// does not add up an error.
    #[test]
    fn read_section_pays_the_table_and_its_section() {
        let dfs = slow(2);
        dfs.write("s", joined(&[&[1; 3], &[], &[2; 300]]));
        let table = 1 + 1 + 1 + 2;
        let before = dfs.stats().reads;
        let t = std::time::Instant::now();
        assert_eq!(dfs.read_section("s", 2), Some(Ok(vec![2; 300])));
        assert!(t.elapsed() >= Duration::from_millis(2));
        assert_eq!(dfs.stats().reads, before + CommStats::new(1, table + 300));
        assert_eq!(dfs.read_section("s", 1), Some(Ok(vec![])));
        assert_eq!(dfs.read_section("s", 3), Some(Ok(vec![])), "past the table");
        assert_eq!(
            dfs.stats().reads,
            before + CommStats::new(3, 3 * table + 300)
        );

        assert_eq!(dfs.read_section("absent", 0), None);
        assert_eq!(dfs.stats().reads.messages, 3, "an absent file is free");
        let mut corrupt = joined(&[&[1; 3]]);
        corrupt[1] = 4;
        dfs.write("bad", corrupt);
        assert!(matches!(dfs.read_section("bad", 0), Some(Err(_))));
        assert!(matches!(dfs.read_section("bad", 7), Some(Err(_))));
        assert_eq!(
            dfs.stats().reads,
            before + CommStats::new(5, 3 * table + 300)
        );
    }

    #[test]
    fn read_ahead_yields_the_order_asked_for_and_counts_like_read() {
        let dfs = slow(2);
        for (i, path) in ["e/10", "e/2", "e/3"].into_iter().enumerate() {
            dfs.write(path, vec![i as u8; 4]);
        }
        dfs.write("e/s", joined(&[&[7; 2], &[8; 5]]));
        let before = dfs.stats().reads;
        let whole = |path: &str| Extent::Whole(path.into());
        let extents = vec![
            whole("e/10"),
            whole("e/absent"),
            Extent::Section("e/s".into(), 1),
            whole("e/2"),
            Extent::Section("e/absent".into(), 0),
            whole("e/3"),
        ];
        let t = std::time::Instant::now();
        let files: Vec<_> = dfs.read_ahead(extents).map(Result::unwrap).collect();
        assert!(t.elapsed() >= Duration::from_millis(8));
        let firsts: Vec<u8> = files.iter().map(|f| f[0]).collect();
        assert_eq!(
            firsts,
            [0, 8, 1, 2],
            "the order asked for, absent files skipped"
        );
        assert_eq!(files[1].len(), 5);
        // The section's read: its table of three bytes and its five.
        assert_eq!(dfs.stats().reads, before + CommStats::new(4, 12 + 3 + 5));
    }

    #[test]
    fn a_dropped_read_ahead_stops_after_the_file_it_is_on() {
        // Reads of 20 ms: the reader is inside the second one when the first
        // file is handed over, and the drop hangs up long before the fifth.
        let dfs = slow(20);
        let paths: Vec<String> = (0..6).map(|i| format!("f/{i}")).collect();
        for path in &paths {
            dfs.write(path, vec![0; 8]);
        }
        let mut ahead = dfs.read_ahead(paths.into_iter().map(Extent::Whole).collect());
        assert!(ahead.next().is_some());
        drop(ahead);
        // The drop joined the reader: the count is final.
        let reads = dfs.stats().reads.messages;
        assert!((1..6).contains(&reads), "{reads} of 6 files read");
    }
}
