//! The warm in-memory snapshot store.
//!
//! A long-running service cannot re-parse and re-simulate a network for
//! every query: uploads run the fault-tolerant pipeline *once* (under
//! the request's [`ResourceGovernor`]) and the result — parsed devices,
//! simulated RIBs/FIBs, and the BDD forwarding graph — stays warm in
//! memory. A stored snapshot is immutable: handlers share it through an
//! `Arc` and read it without locking. The one exception is the BDD
//! manager, which needs `&mut` to answer a symbolic query, so it sits
//! behind the snapshot's only mutex: `/query/reach` waits for it and
//! holds it for one backward walk from the service's sinks, under its
//! per-request governor. `/diff` holds it only to fork the manager (a
//! copy of the arena) and walks the fork, or, when a reach holds it,
//! builds that side's graph afresh. So only a reach waits, for at most
//! another reach's deadline or one fork, and the arena holds only what
//! the upload and reaches put there.
//!
//! The store itself is bounded: at capacity, the oldest snapshot is
//! evicted (uploads must not grow memory without limit any more than a
//! single request may run without a deadline).

use batnet::bdd::Bdd;
use batnet::{Analysis, Error, Exhaustion, ResourceGovernor, Snapshot};
use batnet_config::vi::Device;
use batnet_config::Topology;
use batnet_dataplane::{ForwardingGraph, PacketVars};
use batnet_diff::{DiffSide, SideAnalysis};
use batnet_obs::RunReport;
use batnet_queries::{host_facing_interfaces, HostIface};
use batnet_routing::DataPlane;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A snapshot held warm: the parsed snapshot, the parts of its
/// [`Analysis`], and the partial-outcome accounting if the upload's
/// budget tripped. Immutable once stored, except through `bdd`.
pub struct StoredSnapshot {
    /// Store key.
    pub name: String,
    /// The parsed snapshot (devices, env, quarantine, diagnostics).
    pub snapshot: Snapshot,
    /// The healthy VI devices the analysis covers.
    pub devices: Vec<Device>,
    /// Inferred L3 topology.
    pub topo: Topology,
    /// Simulated RIBs and FIBs.
    pub dp: DataPlane,
    /// The BDD manager backing `graph` — the only thing a query locks.
    pub bdd: Mutex<Bdd>,
    /// Packet variable layout.
    pub vars: PacketVars,
    /// The dataflow graph.
    pub graph: ForwardingGraph,
    /// The host-facing interfaces of `devices`, found once at upload:
    /// `/query/reach` seeds its starts from them.
    pub host_facing: Vec<HostIface>,
    /// The upload's run report, served at `GET /report`.
    pub report: RunReport,
    /// Abandoned work and the limit that tripped, when the upload's
    /// governor cut the analysis short.
    pub partial: Option<(Vec<String>, Exhaustion)>,
    /// Monotone upload sequence number (eviction order).
    pub seq: u64,
}

impl StoredSnapshot {
    /// This snapshot as one side of a diff. An analysis that completed
    /// and kept every parse-healthy device holds the data plane, topology
    /// and graph the diff would build (uploads and diffs both simulate
    /// with `SimOptions::default()`, the only options either takes), so
    /// the diff walks them in a fork of
    /// this snapshot's manager; otherwise the diff simulates this side.
    pub fn diff_side(&self) -> DiffSide<'_> {
        let mut side = self.snapshot.diff_side();
        if self.partial.is_none() && self.devices.len() == self.snapshot.devices.len() {
            side.devices = &self.devices;
            side.analysis = Some(SideAnalysis {
                dp: &self.dp,
                topo: &self.topo,
                graph: &self.graph,
                vars: &self.vars,
                bdd: &self.bdd,
            });
        }
        side
    }
}

/// The shared store: name → immutable snapshot, bounded.
pub struct SnapshotStore {
    snapshots: Mutex<BTreeMap<String, Arc<StoredSnapshot>>>,
    seq: AtomicU64,
    capacity: usize,
}

impl SnapshotStore {
    /// A store holding at most `capacity` snapshots (minimum 1); the
    /// oldest is evicted to admit a new one.
    pub fn new(capacity: usize) -> SnapshotStore {
        SnapshotStore {
            snapshots: Mutex::new(BTreeMap::new()),
            seq: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<StoredSnapshot>>> {
        self.snapshots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parses, analyzes (under `gov`), and stores a snapshot. Replaces
    /// any snapshot of the same name; evicts the oldest at capacity.
    /// Returns the stored entry (for summarizing in the response), or
    /// the pipeline's typed error (empty snapshot, internal).
    pub fn insert(
        &self,
        name: &str,
        configs: Vec<(String, String)>,
        gov: &ResourceGovernor,
    ) -> Result<Arc<StoredSnapshot>, Error> {
        let snapshot = Snapshot::from_configs(configs);
        let (analysis, partial) = snapshot.analyze_resilient(gov)?.into_parts();
        let Analysis {
            devices,
            topo,
            dp,
            bdd,
            vars,
            graph,
            report,
            quarantined: _,
        } = analysis;
        let host_facing = host_facing_interfaces(&devices, &topo);
        let stored = Arc::new(StoredSnapshot {
            name: name.to_string(),
            snapshot,
            devices,
            host_facing,
            topo,
            dp,
            bdd: Mutex::new(bdd),
            vars,
            graph,
            report,
            partial,
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
        });
        {
            let mut map = self.lock();
            if !map.contains_key(name) && map.len() >= self.capacity {
                let oldest = map
                    .iter()
                    .min_by_key(|(_, s)| s.seq)
                    .map(|(k, _)| k.clone());
                if let Some(k) = oldest {
                    map.remove(&k);
                    batnet_obs::counter_add("serve.store.evicted", 1);
                    batnet_obs::event("store-evict", &k, "capacity");
                }
            }
            map.insert(name.to_string(), Arc::clone(&stored));
            batnet_obs::gauge_set("serve.store.snapshots", map.len() as f64);
        }
        // The analysis' scratch and any replaced or evicted snapshot are
        // freed by now; return their pages rather than keep them resident.
        batnet_obs::mem::release_free_heap();
        Ok(stored)
    }

    /// Looks a snapshot up by name.
    pub fn get(&self, name: &str) -> Option<Arc<StoredSnapshot>> {
        self.lock().get(name).cloned()
    }

    /// Everything stored, in name order.
    pub fn list(&self) -> Vec<Arc<StoredSnapshot>> {
        self.lock().values().cloned().collect()
    }

    /// Builds and inserts a suite network (server warm-up, benches,
    /// smoke tests). Unknown ids return `None`.
    pub fn prewarm(&self, net_id: &str) -> Option<Arc<StoredSnapshot>> {
        let entry = batnet_topogen::suite::find(net_id).ok()?;
        let net = (entry.build)();
        self.insert(entry.id, net.configs, &ResourceGovernor::unlimited())
            .ok()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn two_router_configs() -> Vec<(String, String)> {
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
        assert_eq!(store.list().len(), 1);
        let got = store.get("a").expect("stored");
        assert_eq!(got.devices.len(), 2);
        assert!(got.partial.is_none());
        let list = store.list();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].name, "a");
        assert_eq!(list[0].devices.len(), 2);
        assert!(store.get("missing").is_none());
    }

    #[test]
    fn diff_side_reuses_only_a_whole_analysis() {
        let store = SnapshotStore::new(4);
        let whole = store
            .insert("a", two_router_configs(), &ResourceGovernor::unlimited())
            .expect("insert");
        assert!(whole.diff_side().analysis.is_some());
        let tripped = ResourceGovernor::with_deadline(std::time::Duration::ZERO);
        let partial = store
            .insert("b", two_router_configs(), &tripped)
            .expect("insert");
        assert!(partial.partial.is_some());
        assert!(partial.diff_side().analysis.is_none());
    }

    #[test]
    fn empty_upload_is_typed_error() {
        let store = SnapshotStore::new(4);
        let err = store
            .insert("empty", vec![], &ResourceGovernor::unlimited())
            .err()
            .expect("no devices");
        assert!(matches!(err, Error::EmptySnapshot));
        assert!(store.list().is_empty());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let store = SnapshotStore::new(2);
        for name in ["a", "b", "c"] {
            store
                .insert(name, two_router_configs(), &ResourceGovernor::unlimited())
                .expect("insert");
        }
        assert_eq!(store.list().len(), 2);
        assert!(store.get("a").is_none(), "oldest evicted");
        assert!(store.get("b").is_some());
        assert!(store.get("c").is_some());
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
        assert_eq!(store.list().len(), 2);
        assert!(store.get("b").is_some(), "replacement must not evict");
    }
}
