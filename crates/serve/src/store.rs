//! The warm in-memory snapshot store.
//!
//! A long-running service cannot re-parse and re-simulate a network for
//! every query: uploads run the fault-tolerant pipeline *once* (under
//! the request's [`ResourceGovernor`]) and the resulting [`Analysis`] —
//! parsed devices, simulated RIBs/FIBs, and the BDD forwarding graph —
//! stays warm in memory. Queries lock one snapshot at a time (the BDD
//! manager needs `&mut`), so a per-request deadline also bounds how
//! long a query can hold a snapshot's lock.
//!
//! The store itself is bounded: at capacity, the oldest snapshot is
//! evicted (uploads must not grow memory without limit any more than a
//! single request may run without a deadline).

use batnet::{Analysis, Error, Exhaustion, Outcome, ResourceGovernor, Snapshot};
use batnet_routing::SimOptions;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A snapshot held warm: the parsed snapshot, its analysis, and the
/// partial-outcome accounting if the upload's budget tripped.
pub struct StoredSnapshot {
    /// Store key.
    pub name: String,
    /// The parsed snapshot (devices, env, quarantine, diagnostics).
    pub snapshot: Snapshot,
    /// The analyzed world: data plane + BDD forwarding graph.
    pub analysis: Analysis,
    /// Abandoned work and the limit that tripped, when the upload's
    /// governor cut the analysis short.
    pub partial: Option<(Vec<String>, Exhaustion)>,
    /// Monotone upload sequence number (eviction order).
    pub seq: u64,
}

/// Why an upload was refused.
#[derive(Debug)]
pub enum StoreError {
    /// The pipeline returned a typed error (empty snapshot, internal).
    Analysis(Error),
    /// The store is at capacity and eviction is disabled.
    Full,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Analysis(e) => write!(f, "analysis failed: {e}"),
            StoreError::Full => write!(f, "snapshot store full"),
        }
    }
}

/// The shared store. Cheap to clone (internally `Arc`).
#[derive(Clone)]
pub struct SnapshotStore {
    inner: Arc<Inner>,
}

/// A map entry: the locked snapshot plus the metadata the store needs
/// for eviction and listing. That metadata is immutable after insert
/// and lives *outside* the per-snapshot mutex on purpose: a governed
/// query can hold a snapshot's lock for its whole deadline, and neither
/// eviction nor `list()` may block on that while holding the map lock
/// (doing so would stall every `get()` — i.e. all request routing).
struct Entry {
    seq: u64,
    devices: usize,
    quarantined: usize,
    partial: bool,
    snap: Arc<Mutex<StoredSnapshot>>,
}

struct Inner {
    snapshots: Mutex<BTreeMap<String, Entry>>,
    seq: AtomicU64,
    capacity: usize,
}

/// One row of `GET /snapshots`.
pub struct SnapshotInfo {
    /// Store key.
    pub name: String,
    /// Healthy device count.
    pub devices: usize,
    /// Quarantined-device count.
    pub quarantined: usize,
    /// Did the upload's budget trip?
    pub partial: bool,
    /// Upload sequence number.
    pub seq: u64,
}

impl SnapshotStore {
    /// A store holding at most `capacity` snapshots (minimum 1); the
    /// oldest is evicted to admit a new one.
    pub fn new(capacity: usize) -> SnapshotStore {
        SnapshotStore {
            inner: Arc::new(Inner {
                snapshots: Mutex::new(BTreeMap::new()),
                seq: AtomicU64::new(0),
                capacity: capacity.max(1),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Entry>> {
        self.inner
            .snapshots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Parses, analyzes (under `gov`), and stores a snapshot. Replaces
    /// any snapshot of the same name; evicts the oldest at capacity.
    /// Returns the stored entry (for summarizing in the response).
    pub fn insert(
        &self,
        name: &str,
        configs: Vec<(String, String)>,
        gov: &ResourceGovernor,
    ) -> Result<Arc<Mutex<StoredSnapshot>>, StoreError> {
        let snapshot = Snapshot::from_configs(configs);
        let outcome = snapshot
            .analyze_resilient(&SimOptions::default(), 1, gov)
            .map_err(StoreError::Analysis)?;
        let (analysis, partial) = match outcome {
            Outcome::Complete(a) => (a, None),
            Outcome::Partial {
                completed,
                abandoned,
                why,
            } => (completed, Some((abandoned, why))),
        };
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Entry {
            seq,
            devices: analysis.devices.len(),
            quarantined: snapshot.quarantined.len(),
            partial: partial.is_some(),
            snap: Arc::new(Mutex::new(StoredSnapshot {
                name: name.to_string(),
                snapshot,
                analysis,
                partial,
                seq,
            })),
        };
        let stored = Arc::clone(&entry.snap);
        let mut map = self.lock();
        if !map.contains_key(name) && map.len() >= self.inner.capacity {
            // Eviction order comes from Entry.seq alone — never from
            // inside a snapshot's mutex, which a query may hold for its
            // whole deadline.
            let oldest = map
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(k, _)| k.clone());
            if let Some(k) = oldest {
                map.remove(&k);
                batnet_obs::counter_add("serve.store.evicted", 1);
                batnet_obs::event("store-evict", &k, "capacity");
            }
        }
        map.insert(name.to_string(), entry);
        batnet_obs::gauge_set("serve.store.snapshots", map.len() as f64);
        Ok(stored)
    }

    /// Looks a snapshot up by name.
    pub fn get(&self, name: &str) -> Option<Arc<Mutex<StoredSnapshot>>> {
        self.lock().get(name).map(|e| Arc::clone(&e.snap))
    }

    /// Summaries of everything stored, in name order. Reads only the
    /// map-level metadata — a long-held snapshot lock cannot stall it.
    pub fn list(&self) -> Vec<SnapshotInfo> {
        self.lock()
            .iter()
            .map(|(name, e)| SnapshotInfo {
                name: name.clone(),
                devices: e.devices,
                quarantined: e.quarantined,
                partial: e.partial,
                seq: e.seq,
            })
            .collect()
    }

    /// Stored snapshot count.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Builds and inserts a suite network (server warm-up, benches,
    /// smoke tests). Unknown ids return `None`.
    pub fn prewarm(&self, net_id: &str) -> Option<Arc<Mutex<StoredSnapshot>>> {
        let entry = batnet_topogen::suite::find(net_id).ok()?;
        let net = (entry.build)();
        self.insert(entry.id, net.configs, &ResourceGovernor::unlimited())
            .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_router_configs() -> Vec<(String, String)> {
        vec![
            (
                "r1".into(),
                "hostname r1\ninterface hosts\n ip address 10.1.0.1/24\ninterface core\n ip address 172.16.0.1/31\nip route 10.2.0.0/24 172.16.0.0\n".into(),
            ),
            (
                "r2".into(),
                "hostname r2\ninterface core\n ip address 172.16.0.0/31\ninterface servers\n ip address 10.2.0.1/24\nip route 10.1.0.0/24 172.16.0.1\n".into(),
            ),
        ]
    }

    #[test]
    fn insert_get_list_roundtrip() {
        let store = SnapshotStore::new(4);
        store
            .insert("a", two_router_configs(), &ResourceGovernor::unlimited())
            .expect("insert");
        assert_eq!(store.len(), 1);
        let got = store.get("a").expect("stored");
        let g = got.lock().unwrap();
        assert_eq!(g.analysis.devices.len(), 2);
        assert!(g.partial.is_none());
        drop(g);
        let list = store.list();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].name, "a");
        assert_eq!(list[0].devices, 2);
        assert!(store.get("missing").is_none());
    }

    #[test]
    fn empty_upload_is_typed_error() {
        let store = SnapshotStore::new(4);
        let err = store
            .insert("empty", vec![], &ResourceGovernor::unlimited())
            .err()
            .expect("no devices");
        assert!(matches!(err, StoreError::Analysis(Error::EmptySnapshot)));
        assert!(store.is_empty());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let store = SnapshotStore::new(2);
        for name in ["a", "b", "c"] {
            store
                .insert(name, two_router_configs(), &ResourceGovernor::unlimited())
                .expect("insert");
        }
        assert_eq!(store.len(), 2);
        assert!(store.get("a").is_none(), "oldest evicted");
        assert!(store.get("b").is_some());
        assert!(store.get("c").is_some());
    }

    #[test]
    fn eviction_and_list_never_need_a_held_snapshot_lock() {
        let store = SnapshotStore::new(2);
        store
            .insert("a", two_router_configs(), &ResourceGovernor::unlimited())
            .unwrap();
        store
            .insert("b", two_router_configs(), &ResourceGovernor::unlimited())
            .unwrap();
        // A governed query holds "a"'s lock for its whole deadline;
        // eviction and listing must proceed regardless (with eviction
        // order read under the snapshot lock, this test deadlocks).
        let a = store.get("a").expect("stored");
        let _query = a.lock().unwrap();
        store
            .insert("c", two_router_configs(), &ResourceGovernor::unlimited())
            .expect("insert must not block on the held snapshot");
        assert!(store.get("a").is_none(), "oldest evicted even while locked");
        let list = store.list();
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn reupload_replaces_without_eviction() {
        let store = SnapshotStore::new(2);
        store
            .insert("a", two_router_configs(), &ResourceGovernor::unlimited())
            .unwrap();
        store
            .insert("b", two_router_configs(), &ResourceGovernor::unlimited())
            .unwrap();
        store
            .insert("a", two_router_configs(), &ResourceGovernor::unlimited())
            .unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.get("b").is_some(), "replacement must not evict");
    }
}
