//! One conformance suite for every map. Each property is written once,
//! takes the [`TreeKind`] under test and builds its maps only through
//! [`build_tree`]; each map's own `tests` module instantiates the whole
//! suite with one line, `conformance_suite!(Kind);`, so every map carries
//! the same tests under the same names and every failure message names
//! the tree (and the scheme, where a property loops over schemes). The
//! maps run on `AllocatorKind::Sys`, whose frees reach libc, so a
//! sanitized run of these tests reports a block freed while another thread
//! reads it. Shapes only one map has (splits, node sizes, tombstones,
//! retires per delete, pooled recycling) stay in that map's own module.

use crate::{build_tree, ConcurrentMap, TreeKind, MAX_KEY};
use epic_alloc::{build_allocator, AllocatorKind, CostModel};
use epic_smr::{build_smr, SmrConfig, SmrHandle, SmrKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Limbo-bag capacity of every test map.
const BAG_CAP: usize = 32;

fn map(tree: TreeKind, kind: SmrKind, threads: usize) -> Arc<dyn ConcurrentMap> {
    let alloc = build_allocator(AllocatorKind::Sys, threads, CostModel::zero());
    let cfg = SmrConfig::new(threads).with_bag_cap(BAG_CAP);
    build_tree(tree, build_smr(kind, alloc, cfg))
}

/// Instantiates every property of the suite for `TreeKind::$tree` as a
/// `#[test]` of the invoking module, named after the property.
macro_rules! conformance_suite {
    ($tree:ident) => {
        $crate::conformance::conformance_suite!(
            $tree: sequential_semantics,
            key_zero_is_usable,
            empty_then_refill,
            ordered_insertion_any_order,
            reclamation_happens_under_churn,
            drop_frees_all_pool_blocks,
            concurrent_stress_every_scheme
        );
    };
    ($tree:ident: $($property:ident),*) => {
        $(
            #[test]
            fn $property() {
                $crate::conformance::$property($crate::TreeKind::$tree);
            }
        )*
    };
}
pub(crate) use conformance_suite;

pub(crate) fn sequential_semantics(tree: TreeKind) {
    for kind in SmrKind::ALL {
        let m = map(tree, kind, 1);
        let h = m.smr().register(0);
        let at = format!("{} {kind:?}", tree.name());
        assert!(!m.contains(&h, 5), "{at}");
        assert!(m.insert(&h, 5, 50), "{at}");
        assert!(!m.insert(&h, 5, 51), "{at}: duplicate insert");
        assert_eq!(m.get(&h, 5), Some(50), "{at}");
        assert!(m.insert(&h, 3, 30) && m.insert(&h, 8, 80), "{at}");
        assert_eq!(m.get(&h, 99), None, "{at}");
        assert_eq!(m.collect_keys(), [3, 5, 8], "{at}");
        // 5 has two children here: the OCC tree leaves a routing node.
        assert!(m.remove(&h, 5), "{at}");
        assert!(!m.contains(&h, 5), "{at}");
        assert!(!m.remove(&h, 5), "{at}: double remove");
        assert_eq!(m.collect_keys(), [3, 8], "{at}");
        m.check_invariants().unwrap_or_else(|e| panic!("{at}: {e}"));
    }
}

/// Both ends of the key space are usable: no sentinel's key is compared.
pub(crate) fn key_zero_is_usable(tree: TreeKind) {
    for kind in SmrKind::ALL {
        let m = map(tree, kind, 1);
        let h = m.smr().register(0);
        let at = format!("{} {kind:?}", tree.name());
        assert!(m.insert(&h, 0, 7) && m.insert(&h, MAX_KEY, 9), "{at}");
        assert_eq!(m.get(&h, 0), Some(7), "{at}");
        assert_eq!(m.collect_keys(), [0, MAX_KEY], "{at}");
        assert!(m.remove(&h, 0), "{at}");
        assert_eq!(m.get(&h, MAX_KEY), Some(9), "{at}");
        assert_eq!(m.collect_keys(), [MAX_KEY], "{at}");
        m.check_invariants().unwrap_or_else(|e| panic!("{at}: {e}"));
    }
}

pub(crate) fn empty_then_refill(tree: TreeKind) {
    for kind in [SmrKind::Rcu, SmrKind::Qsbr] {
        let m = map(tree, kind, 1);
        let h = m.smr().register(0);
        let at = format!("{} {kind:?}", tree.name());
        for k in 0..64 {
            assert!(m.insert(&h, k, k), "{at}: insert {k}");
        }
        for k in 0..64 {
            assert!(m.remove(&h, k), "{at}: remove {k}");
        }
        assert_eq!(m.size(), 0, "{at}");
        m.check_invariants().unwrap_or_else(|e| panic!("{at}: {e}"));
        for k in (0..64).rev() {
            assert!(m.insert(&h, k, k * 2), "{at}: reinsert {k}");
        }
        assert_eq!(m.size(), 64, "{at}");
        assert_eq!(m.get(&h, 10), Some(20), "{at}");
        m.check_invariants().unwrap_or_else(|e| panic!("{at}: {e}"));
    }
}

pub(crate) fn ordered_insertion_any_order(tree: TreeKind) {
    let (m, at) = (map(tree, SmrKind::Rcu, 1), tree.name());
    let h = m.smr().register(0);
    for k in [9u64, 1, 7, 3, 5, 2, 8, 4, 6] {
        assert!(m.insert(&h, k, k * 10), "{at}: insert {k}");
    }
    assert_eq!(m.collect_keys(), (1..=9).collect::<Vec<_>>(), "{at}");
    for k in 1..=9 {
        assert_eq!(m.get(&h, k), Some(k * 10), "{at}: get {k}");
    }
    m.check_invariants().unwrap_or_else(|e| panic!("{at}: {e}"));
}

pub(crate) fn reclamation_happens_under_churn(tree: TreeKind) {
    let (m, at) = (map(tree, SmrKind::Debra, 1), tree.name());
    let h = m.smr().register(0);
    for round in 0..2_000u64 {
        assert!(m.insert(&h, round % 16, round), "{at}: round {round}");
        assert!(m.remove(&h, round % 16), "{at}: round {round}");
    }
    let (s, per) = (m.smr().stats(), m.frees_per_delete_hint() as u64);
    assert!(s.retired > 1_500 * per, "{at}: churn retires: {s:?}");
    assert!(s.freed > 1_000 * per, "{at}: and reclaims: {s:?}");
}

pub(crate) fn drop_frees_all_pool_blocks(tree: TreeKind) {
    let m = map(tree, SmrKind::Debra, 1);
    let alloc = Arc::clone(m.smr().allocator());
    {
        let h = m.smr().register(0);
        for k in 0..300 {
            m.insert(&h, k, k);
        }
        for k in (0..50).chain(100..200) {
            m.remove(&h, k);
        }
    }
    drop(m);
    let a = alloc.snapshot().totals;
    assert_eq!(a.allocs, a.deallocs, "{}: node leak at drop", tree.name());
}

/// Four workers under every scheme, each owning the keys ≡ tid (mod 4):
/// every insert, remove and own-key get must return what the worker's
/// shadow map says, and the final key set must be the union of the
/// shadows. Reads also land on other workers' keys; those returns are not
/// checked, as no sequential answer exists for them here.
pub(crate) fn concurrent_stress_every_scheme(tree: TreeKind) {
    for kind in SmrKind::ALL {
        let m = map(tree, kind, 4);
        let (m, at) = (&*m, &format!("{} {kind:?}", tree.name()));
        let shadows: Vec<BTreeMap<u64, u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|tid| s.spawn(move || worker(m, tid, at)))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        m.check_invariants().unwrap_or_else(|e| panic!("{at}: {e}"));
        let mut want: Vec<u64> = shadows.iter().flat_map(BTreeMap::keys).copied().collect();
        want.sort_unstable();
        assert_eq!(
            m.collect_keys(),
            want,
            "{at}: final keys are not the shadows' union"
        );
    }
}

/// One stress worker's scripted rounds, each return checked; returns its
/// shadow of the keys it owns.
fn worker(m: &dyn ConcurrentMap, tid: u64, at: &str) -> BTreeMap<u64, u64> {
    let h = m.smr().register(tid as usize);
    let mut shadow = BTreeMap::new();
    for round in 0..300u64 {
        for i in 0..8u64 {
            let k = tid + 4 * (i + 8 * (round % 3));
            if round % 2 == 0 {
                let fresh = !shadow.contains_key(&k);
                assert_eq!(m.insert(&h, k, round), fresh, "{at}: insert {k}");
                shadow.entry(k).or_insert(round);
            } else {
                let had = shadow.remove(&k).is_some();
                assert_eq!(m.remove(&h, k), had, "{at}: remove {k}");
            }
        }
        for i in 0..8u64 {
            let k = (round + 13 * i) % 97;
            let got = m.get(&h, k);
            if k % 4 == tid {
                assert_eq!(got, shadow.get(&k).copied(), "{at}: get {k}");
            }
        }
    }
    churn_until_freed(m, &h, at);
    h.detach();
    shadow
}

/// After a worker's scripted rounds, keeps inserting and removing one of
/// its own keys above the scripted range (so the final key set does not
/// change) until the scheme has freed 4 × [`BAG_CAP`] blocks, and panics
/// if 100 000 pairs were not enough; the leaky `None` is skipped. This is
/// what makes a sanitized run of the stress exercise real frees. Several
/// schemes try to reclaim only when a bag fills on retire, and the epoch
/// and token schemes only once every live thread has passed a quiescent
/// point; with four workers on two CPUs one preempted worker can stall
/// that through all the scripted rounds (without the churn, QSBR freed
/// nothing in about 1 of 40 runs, and RCU freed under 100 blocks in 3 of
/// 40 runs beside a busy loop). Each check that falls short yields the
/// CPU: an optimised build spends the whole budget in about 10 ms, less
/// than the scheduler takes to run a descheduled peer, which would
/// otherwise keep pinning the epoch.
fn churn_until_freed(m: &dyn ConcurrentMap, h: &SmrHandle, at: &str) {
    let smr = m.smr();
    if smr.kind() == SmrKind::None {
        return;
    }
    for i in 0..100_000u64 {
        if i % 64 == 0 {
            if smr.stats().freed >= 4 * BAG_CAP as u64 {
                return;
            }
            std::thread::yield_now();
        }
        let key = 1_000 + 4 * (i % 8) + h.tid() as u64;
        assert!(m.insert(h, key, key), "{at}: churn insert {key}");
        assert!(m.remove(h, key), "{at}: churn remove {key}");
    }
    panic!(
        "{at}: freed {} blocks, fewer than {}",
        smr.stats().freed,
        4 * BAG_CAP
    );
}
