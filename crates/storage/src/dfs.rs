//! The simulated distributed file system.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use imitator_metrics::{AtomicCommStats, CommStats};
use parking_lot::RwLock;

/// Cost model for the simulated DFS.
///
/// The defaults model an HDFS-like store on a 1 GigE cluster, scaled to the
/// repository's graph sizes: every operation pays a fixed latency, and bytes
/// move at a finite bandwidth with writes amplified by the replication
/// factor (HDFS default 3). The paper's observation that "HDFS is more
/// friendly to writing large data" (§2.3.1) falls out of the fixed latency
/// dominating small writes.
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

    /// Whether `path` exists. Free (metadata is cached client-side).
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// Removes `path`, returning whether it existed. Pays one latency unit.
    pub fn delete(&self, path: &str) -> bool {
        std::thread::sleep(self.config.latency);
        self.files.write().remove(path).is_some()
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

    /// Deletes `stale`, then writes `files`, behind the caller: a client
    /// thread of its own makes the same [`Dfs::delete`] and [`Dfs::write`]
    /// calls the caller would have made, in order and one at a time — it
    /// hides their latency behind the caller's work, it does not buy the
    /// client a second stream. Each file is visible once its own write has
    /// returned; [`WriteBehind::wait`] (or dropping the handle) blocks until
    /// all of them are.
    pub fn write_behind(&self, stale: Vec<String>, files: Vec<(String, Vec<u8>)>) -> WriteBehind {
        let dfs = self.clone();
        WriteBehind(Some(std::thread::spawn(move || {
            for path in stale {
                dfs.delete(&path);
            }
            for (path, bytes) in files {
                dfs.write(&path, bytes);
            }
        })))
    }

    /// Reads `paths` ahead of the caller: a client thread of its own makes
    /// the same [`Dfs::read`] calls, in order and one at a time, and the
    /// returned iterator hands each file over as it lands (absent paths are
    /// skipped, as free as a `read` that finds nothing). Dropping the
    /// iterator stops the reader after the file it is on.
    pub fn read_ahead(&self, paths: Vec<String>) -> ReadAhead {
        let dfs = self.clone();
        let (landed, files) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for file in paths.iter().filter_map(|path| dfs.read(path)) {
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

/// Files on their way to the store behind the caller ([`Dfs::write_behind`]).
/// Dropping the handle waits for them too.
#[derive(Debug)]
pub struct WriteBehind(Option<JoinHandle<()>>);

impl WriteBehind {
    /// Blocks until every file is on the store.
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

/// Files on their way from the store ahead of the caller
/// ([`Dfs::read_ahead`]): yields them in the order asked for, blocking while
/// the next one has not landed.
#[derive(Debug)]
pub struct ReadAhead {
    files: Option<mpsc::Receiver<Arc<Vec<u8>>>>,
    reader: Option<JoinHandle<()>>,
}

impl Iterator for ReadAhead {
    type Item = Arc<Vec<u8>>;

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
        assert!(b.delete("k"));
        assert!(!a.exists("k"));
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
        dfs.delete("a");
        assert_eq!(dfs.used_bytes(), 5);
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
    fn write_behind_pays_the_sum_of_its_operations_and_counts_them_like_write() {
        let (behind, blocking) = (slow(5), slow(5));
        let files = |n: u8| (0..n).map(|i| (format!("p/{i}"), vec![i; 10 + i as usize]));
        for dfs in [&behind, &blocking] {
            dfs.write("p/stale", vec![0; 7]);
        }
        let t = std::time::Instant::now();
        let handle = behind.write_behind(behind.list("p/"), files(3).collect());
        handle.wait();
        // One delete and three writes, one after another: the sum, not the max.
        assert!(t.elapsed() >= Duration::from_millis(20));

        blocking.delete("p/stale");
        for (path, bytes) in files(3) {
            blocking.write(&path, bytes);
        }
        assert_eq!(behind.stats(), blocking.stats());
        assert_eq!(behind.list("p/"), blocking.list("p/"));
        for path in behind.list("p/") {
            assert_eq!(behind.read(&path), blocking.read(&path));
        }
    }

    #[test]
    fn dropping_a_write_behind_waits_for_it() {
        let dfs = slow(3);
        drop(dfs.write_behind(
            Vec::new(),
            vec![("a".into(), vec![1]), ("b".into(), vec![2])],
        ));
        assert_eq!(dfs.list(""), vec!["a", "b"]);
    }

    #[test]
    fn read_ahead_yields_the_order_asked_for_and_counts_like_read() {
        let dfs = slow(2);
        for (i, path) in ["e/10", "e/2", "e/3"].into_iter().enumerate() {
            dfs.write(path, vec![i as u8; 4]);
        }
        let before = dfs.stats().reads;
        let mut paths = dfs.list("e/");
        paths.insert(1, "e/absent".into());
        let t = std::time::Instant::now();
        let files: Vec<_> = dfs.read_ahead(paths).collect();
        assert!(t.elapsed() >= Duration::from_millis(6));
        let firsts: Vec<u8> = files.iter().map(|f| f[0]).collect();
        assert_eq!(firsts, [0, 1, 2], "listing order, the absent path skipped");
        assert_eq!(dfs.stats().reads, before + CommStats::new(3, 12));
    }

    #[test]
    fn a_dropped_read_ahead_stops_after_the_file_it_is_on() {
        // Reads of 20 ms: the reader is inside the second one when the first
        // file is handed over, and the drop hangs up long before the fifth.
        let dfs = slow(20);
        let paths: Vec<String> = (0..6).map(|i| format!("f/{i}")).collect();
        dfs.write_behind(
            Vec::new(),
            paths.iter().map(|p| (p.clone(), vec![0; 8])).collect(),
        )
        .wait();
        let mut ahead = dfs.read_ahead(paths);
        assert!(ahead.next().is_some());
        drop(ahead);
        // The drop joined the reader: the count is final.
        let reads = dfs.stats().reads.messages;
        assert!((1..6).contains(&reads), "{reads} of 6 files read");
    }
}
