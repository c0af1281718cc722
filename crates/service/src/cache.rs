//! The concurrent caches shared by the worker pool: the plan-shape fit
//! cache and the selectivity-estimate cache, both bounded by a pluggable
//! [`EvictionPolicy`].
//!
//! * [`SharedFitCache`] implements [`uaq_cost::FitCache`]: shape signature
//!   → (`Arc<Vec<NodeCostContext>>`, fit-signature → `Arc<NodeFits>`).
//! * [`SharedSelEstCache`] implements [`uaq_cost::SelEstCache`]: fully
//!   qualified instance key (shape + catalog + literals + sample
//!   fingerprint) → `SelEstimates`. A hit skips the sample pass entirely.
//!
//! Both are sharded by FNV-1a of the key, and a shard is exactly one
//! `Mutex<EvictingMap>`: the map holds the only copy of every entry, so
//! the configured bounds are the real bounds and every hit is recorded
//! with the eviction policy. A probe costs one FNV route plus one hash
//! probe under the shard mutex. Values are `Arc`-backed, so the lock is
//! held only for that probe — never across a sample pass, a fit, or a
//! prediction — and hits are a pointer clone. Both caches are
//! bit-transparent: everything a cached value depends on is part of its
//! key, so a hit returns exactly what a fresh computation would produce.
//!
//! Eviction is policy-driven. The default is
//! [`EvictionPolicy::Segmented`] (SLRU): new entries churn through a
//! probation segment and only entries hit at least twice earn a protected
//! slot, so an ad-hoc scan cannot flush the recurring templates plain
//! [`EvictionPolicy::Lru`] would sacrifice.

use crate::fault::{Fault, FaultInjector, FaultSite};
use crate::sync::lock_recover_with;
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};
use uaq_cost::{FitCache, FitSignature, NodeCostContext, NodeFits, SelEstCache};
use uaq_selest::SelEstimates;
use uaq_telemetry::{Counter, Registry};

/// What happens when a bounded cache is full and a new entry arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used entry to admit the new one.
    Lru,
    /// Segmented LRU: new entries land in a probation segment; a hit
    /// promotes to the protected segment (up to 4/5 of capacity), whose
    /// overflow demotes its LRU member back to probation. One-shot ad-hoc
    /// queries churn through probation without displacing the recurring
    /// templates that earned protection — scan-resistant where plain LRU
    /// is not.
    #[default]
    Segmented,
}

/// Protected-segment share of capacity under [`EvictionPolicy::Segmented`].
const PROTECTED_NUM: usize = 4;
const PROTECTED_DEN: usize = 5;

#[derive(Debug)]
struct Slot<K, V> {
    /// The entry's key, kept so an eviction can drop its index entry.
    key: K,
    value: V,
    /// Stamp of the most recent touch; queue entries with older stamps are
    /// stale markers and get skipped.
    touch: u64,
    /// Segmented only: lives in the protected segment.
    protected: bool,
}

/// A bounded map with policy-driven eviction. Entries live in a slab; the
/// hash map is only the key → slot index, so a hit is one hash probe and
/// clones no key. Recency is tracked with lazy queues — a touch pushes a
/// `(stamp, slot)` marker and bumps the slot's stamp, invalidating older
/// markers — so every operation is amortized O(1) with no intrusive list
/// bookkeeping. Stamps are unique, which is also what rejects a stale
/// marker whose slot has since been reused by another key. Not
/// thread-safe on its own; the shared caches wrap it in a `Mutex`.
#[derive(Debug)]
pub(crate) struct EvictingMap<K: Hash + Eq + Clone, V> {
    capacity: usize,
    policy: EvictionPolicy,
    index: HashMap<K, usize>,
    slots: Vec<Option<Slot<K, V>>>,
    /// Vacated slot indices, reused before the slab grows.
    free: Vec<usize>,
    /// Recency queues: `[probation, protected]`. `Lru` only uses
    /// probation.
    queues: [VecDeque<(u64, usize)>; 2],
    protected_len: usize,
    tick: u64,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V> EvictingMap<K, V> {
    pub fn new(capacity: usize, policy: EvictionPolicy) -> Self {
        Self {
            capacity,
            policy,
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            queues: [VecDeque::new(), VecDeque::new()],
            protected_len: 0,
            tick: 0,
            evictions: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.contains_key(key)
    }

    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.queues[0].clear();
        self.queues[1].clear();
        self.protected_len = 0;
    }

    fn slot(&mut self, at: usize) -> &mut Slot<K, V> {
        self.slots[at].as_mut().expect("indexed slot is live")
    }

    /// Looks an entry up and records the touch (promoting it under the
    /// segmented policy).
    pub fn get<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let at = *self.index.get(key)?;
        if self.policy == EvictionPolicy::Segmented {
            self.promote(at);
        }
        self.stamp(at);
        Some(&mut self.slot(at).value)
    }

    /// Looks an entry up **without** recording a touch. For fill paths
    /// (`put_*`): the request that computes a value already touched the
    /// entry on its lookup, and counting the fill as a second use would
    /// promote brand-new entries straight into the protected segment —
    /// exactly the scan resistance `Segmented` exists to provide.
    pub fn peek_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let at = *self.index.get(key)?;
        Some(&mut self.slot(at).value)
    }

    /// Inserts a new entry, evicting per policy when full. Returns false
    /// when the entry was rejected (capacity zero). The key must not
    /// already be present.
    pub fn try_insert(&mut self, key: K, value: V) -> bool {
        debug_assert!(!self.index.contains_key(&key), "insert of present key");
        if self.capacity == 0 {
            return false;
        }
        if self.index.len() >= self.capacity {
            self.evict_one();
            if self.index.len() >= self.capacity {
                return false;
            }
        }
        let slot = Some(Slot {
            key: key.clone(),
            value,
            touch: 0,
            protected: false,
        });
        let at = match self.free.pop() {
            Some(at) => {
                self.slots[at] = slot;
                at
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.index.insert(key, at);
        self.stamp(at);
        true
    }

    /// Moves a probation entry to the protected segment, demoting the
    /// protected LRU back to probation when the segment overflows.
    fn promote(&mut self, at: usize) {
        let protected_cap = self.capacity * PROTECTED_NUM / PROTECTED_DEN;
        if protected_cap == 0 {
            return;
        }
        let slot = self.slot(at);
        if slot.protected {
            return;
        }
        slot.protected = true;
        self.protected_len += 1;
        while self.protected_len > protected_cap {
            // The just-promoted entry has no marker in the protected queue
            // yet, so it can never demote itself here.
            match self.pop_valid(1) {
                Some(victim) => {
                    self.slot(victim).protected = false;
                    self.protected_len -= 1;
                    // Demotion re-enters probation at the MRU end.
                    self.stamp(victim);
                }
                None => break,
            }
        }
    }

    /// Records a touch: bumps the slot stamp and pushes a fresh marker to
    /// the slot's segment queue.
    fn stamp(&mut self, at: usize) {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.slot(at);
        slot.touch = tick;
        let segment = slot.protected as usize;
        self.queues[segment].push_back((tick, at));
        // Lazy invalidation means stale markers accumulate; rebuild the
        // queue when they dominate (amortized O(1) per touch).
        if self.queues[segment].len() > 2 * self.index.len() + 8 {
            let slots = &self.slots;
            self.queues[segment].retain(|&(stamp, at)| Self::names(slots, stamp, at, segment));
        }
    }

    /// Whether marker `(stamp, at)` still names a live entry of `segment`.
    fn names(slots: &[Option<Slot<K, V>>], stamp: u64, at: usize, segment: usize) -> bool {
        slots[at]
            .as_ref()
            .is_some_and(|s| s.touch == stamp && s.protected as usize == segment)
    }

    /// Pops queue markers until one still names its segment's live LRU.
    fn pop_valid(&mut self, segment: usize) -> Option<usize> {
        while let Some((stamp, at)) = self.queues[segment].pop_front() {
            if Self::names(&self.slots, stamp, at, segment) {
                return Some(at);
            }
        }
        None
    }

    fn evict_one(&mut self) {
        let victim = match self.policy {
            EvictionPolicy::Lru => self.pop_valid(0),
            // Probation first; an all-protected cache falls back to the
            // protected LRU.
            EvictionPolicy::Segmented => self.pop_valid(0).or_else(|| self.pop_valid(1)),
        };
        if let Some(at) = victim {
            let slot = self.slots[at].take().expect("victim is live");
            self.index.remove(&slot.key);
            self.free.push(at);
            if slot.protected {
                self.protected_len -= 1;
            }
            self.evictions += 1;
        }
    }
}

/// Hit/miss counters, cheap enough to keep always-on: each is a
/// [`uaq_telemetry::Counter`] (a relaxed atomic under the hood), detached
/// for standalone caches and registry-bound when the owning service
/// constructs the cache with [`SharedFitCache::instrumented`] — the same
/// cells then feed `PredictionService::telemetry()` with zero extra work
/// on the probe path.
#[derive(Debug, Default)]
struct Counters {
    context_hits: Counter,
    context_misses: Counter,
    fit_hits: Counter,
    fit_misses: Counter,
    poison_recoveries: Counter,
}

impl Counters {
    /// Counters registered under `uaq_cache_probes_total{cache,outcome}`
    /// and `uaq_cache_poison_recoveries_total{cache}`.
    fn registered(registry: &Registry) -> Self {
        let probe = |cache: &str, outcome: &str| {
            registry.counter(
                "uaq_cache_probes_total",
                &[("cache", cache), ("outcome", outcome)],
            )
        };
        Self {
            context_hits: probe("fit_context", "hit"),
            context_misses: probe("fit_context", "miss"),
            fit_hits: probe("fit", "hit"),
            fit_misses: probe("fit", "miss"),
            poison_recoveries: registry
                .counter("uaq_cache_poison_recoveries_total", &[("cache", "fit")]),
        }
    }
}

/// A point-in-time snapshot of the service's cache counters. The
/// `sel_*` fields belong to the selectivity-estimate cache and are zero on
/// a [`SharedFitCache::stats`] snapshot (the service merges both caches in
/// `PredictionService::cache_stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Plan-shape (context-level) hits: the `NodeCostContext`s were reused.
    pub context_hits: u64,
    pub context_misses: u64,
    /// Full-fit hits: the grid fits were skipped entirely.
    pub fit_hits: u64,
    pub fit_misses: u64,
    /// Selectivity-estimate hits: the sample pass was skipped entirely.
    pub sel_hits: u64,
    pub sel_misses: u64,
    /// Distinct plan shapes currently cached.
    pub shapes: usize,
    /// Distinct query instances currently held by the estimate cache.
    pub sel_entries: usize,
    /// Shapes evicted from the fit cache since startup.
    pub shape_evictions: u64,
    /// Instances evicted from the estimate cache since startup.
    pub sel_evictions: u64,
    /// Times a cache lock was found poisoned (a holder panicked) and
    /// recovered by invalidating the cache. Bit-transparency makes the
    /// invalidation conservatively correct: the next miss recomputes
    /// exactly what the dropped entries held. Sums both caches in the
    /// service's merged snapshot.
    pub poison_recoveries: u64,
}

impl CacheStats {
    /// Fraction of fit lookups that skipped the grid fits. NaN when no
    /// probe has happened — the same zero-denominator convention as the
    /// experiment crate's `violation_rate` ("no data" is not "0%"); render
    /// with a NaN-aware formatter (`n/a`), and clamp before exporting to
    /// a gauge so NaN never reaches the Prometheus text path.
    pub fn fit_hit_rate(&self) -> f64 {
        let total = self.fit_hits + self.fit_misses;
        if total == 0 {
            f64::NAN
        } else {
            self.fit_hits as f64 / total as f64
        }
    }

    /// Fraction of estimate lookups that skipped the sample pass. NaN on
    /// zero probes; see [`Self::fit_hit_rate`].
    pub fn sel_hit_rate(&self) -> f64 {
        let total = self.sel_hits + self.sel_misses;
        if total == 0 {
            f64::NAN
        } else {
            self.sel_hits as f64 / total as f64
        }
    }
}

struct ShapeEntry {
    contexts: Option<Arc<Vec<NodeCostContext>>>,
    fits: EvictingMap<FitSignature, Arc<NodeFits>>,
}

/// Bounds and policy for the service caches.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum distinct plan shapes held by the fit cache.
    pub max_shapes: usize,
    /// Maximum fit variants (distinct selectivity-distribution signatures)
    /// held per shape.
    pub max_fits_per_shape: usize,
    /// Maximum query instances (shape + literals + samples) held by the
    /// selectivity-estimate cache.
    pub max_sel_entries: usize,
    /// Eviction policy applied to every bounded level.
    pub eviction: EvictionPolicy,
    /// Requested shard count for both shared caches. The effective count
    /// is clamped so every shard keeps at least [`MIN_KEYS_PER_SHARD`]
    /// slots (tiny caches collapse to one shard and behave exactly like
    /// the unsharded PR 7 code, eviction order included).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            max_shapes: 4096,
            max_fits_per_shape: 64,
            max_sel_entries: 16384,
            eviction: EvictionPolicy::default(),
            shards: DEFAULT_SHARDS,
        }
    }
}

/// Default requested shard count for the shared caches.
pub const DEFAULT_SHARDS: usize = 8;

/// Sharding is only worth its per-shard eviction state when shards stay
/// reasonably full; below this many slots per shard the cache collapses
/// toward one shard.
const MIN_KEYS_PER_SHARD: usize = 64;

/// Shard count actually used for a cache of `capacity` total slots.
fn effective_shards(requested: usize, capacity: usize) -> usize {
    requested.max(1).min((capacity / MIN_KEYS_PER_SHARD).max(1))
}

/// FNV-1a over the key bytes — the shard router. Stable across platforms
/// and process runs (unlike `RandomState`), so a key's shard is a pure
/// function of the key and the shard count; the golden differential tests
/// lean on that.
fn shard_of(key: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Fires the chaos probe of a cache lookup and says whether the lookup
/// must report a miss. Called with the shard guard held, so an injected
/// `Panic` poisons the lock — the scenario the shards' poison recovery
/// exists for.
fn forced_miss(injector: &Option<Arc<dyn FaultInjector>>, site: FaultSite) -> bool {
    match injector.as_ref().and_then(|i| i.inject(site, usize::MAX)) {
        Some(Fault::ProbeMiss) => true,
        Some(f) => {
            crate::fault::apply(f, site);
            false
        }
        None => false,
    }
}

type FitShard = Mutex<EvictingMap<String, ShapeEntry>>;

/// Thread-safe fit cache, sharded by FNV-1a of the shape signature. Safe
/// to share across catalogs and predictor configs: the predictor keys
/// entries on (plan shape, catalog fingerprint) and fits additionally on
/// everything they depend on.
///
/// A shard is one [`EvictingMap`] behind one mutex and holds the only copy
/// of its entries: a probe is one FNV route and one map probe under the
/// shard lock, every hit reaches the eviction policy, and an evicted entry
/// is gone. Each shard evicts independently (a hot shard can evict while
/// a cold one has room — the price of independent locks).
pub struct SharedFitCache {
    config: CacheConfig,
    shards: Vec<FitShard>,
    counters: Counters,
    injector: Option<Arc<dyn FaultInjector>>,
}

impl SharedFitCache {
    pub fn new(config: CacheConfig) -> Self {
        let n = effective_shards(config.shards, config.max_shapes);
        let per_shard = config.max_shapes.div_ceil(n);
        Self {
            config,
            shards: (0..n)
                .map(|_| Mutex::new(EvictingMap::new(per_shard, config.eviction)))
                .collect(),
            counters: Counters::default(),
            injector: None,
        }
    }

    /// Test-only in spirit: wires a fault injector into the lookup paths
    /// ([`FaultSite::FitCacheProbe`]) so the chaos harness can poison the
    /// cache lock mid-probe and force misses. An inactive injector is
    /// dropped here, so the production probe pays one branch.
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = injector.active().then_some(injector);
        self
    }

    /// Rebinds the probe counters onto `registry` (series
    /// `uaq_cache_probes_total{cache="fit"|"fit_context"}`). Call right
    /// after construction, before any probes — earlier counts stay on the
    /// detached cells and are lost.
    pub fn instrumented(mut self, registry: &Registry) -> Self {
        self.counters = Counters::registered(registry);
        self
    }

    /// The shard owning `shape`.
    fn shard(&self, shape: &str) -> &FitShard {
        &self.shards[shard_of(shape, self.shards.len())]
    }

    /// Locks one shard, recovering from poison by invalidating it: the
    /// panicking holder may have died mid-update, and bit-transparency
    /// makes drop-and-recompute always correct.
    fn lock<'a>(&self, shard: &'a FitShard) -> MutexGuard<'a, EvictingMap<String, ShapeEntry>> {
        lock_recover_with(shard, &self.counters.poison_recoveries, EvictingMap::clear)
    }

    /// Exposed for the service/tests: how many shards this cache runs.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One lookup: `read` runs on the shape's entry under the shard lock
    /// (the hit is recorded with the eviction policy), the outcome is
    /// counted after the lock is released.
    fn probe<T>(
        &self,
        shape: &str,
        hits: &Counter,
        misses: &Counter,
        read: impl FnOnce(&mut ShapeEntry) -> Option<T>,
    ) -> Option<T> {
        let mut map = self.lock(self.shard(shape));
        let hit = if forced_miss(&self.injector, FaultSite::FitCacheProbe) {
            None
        } else {
            map.get(shape).and_then(read)
        };
        drop(map);
        match &hit {
            Some(_) => hits.inc(),
            None => misses.inc(),
        };
        hit
    }

    pub fn stats(&self) -> CacheStats {
        let (mut shapes, mut evictions) = (0, 0);
        for shard in &self.shards {
            let map = self.lock(shard);
            shapes += map.len();
            evictions += map.evictions();
        }
        CacheStats {
            context_hits: self.counters.context_hits.get(),
            context_misses: self.counters.context_misses.get(),
            fit_hits: self.counters.fit_hits.get(),
            fit_misses: self.counters.fit_misses.get(),
            shapes,
            shape_evictions: evictions,
            poison_recoveries: self.counters.poison_recoveries.get(),
            ..CacheStats::default()
        }
    }

    /// Drops every entry (counters are retained).
    pub fn clear(&self) {
        for shard in &self.shards {
            self.lock(shard).clear();
        }
    }

    fn empty_entry(&self) -> ShapeEntry {
        ShapeEntry {
            contexts: None,
            fits: EvictingMap::new(self.config.max_fits_per_shape, self.config.eviction),
        }
    }
}

impl Default for SharedFitCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl FitCache for SharedFitCache {
    fn get_contexts(&self, shape: &str) -> Option<Arc<Vec<NodeCostContext>>> {
        let c = &self.counters;
        self.probe(shape, &c.context_hits, &c.context_misses, |e| {
            e.contexts.clone()
        })
    }

    fn put_contexts(&self, shape: &str, contexts: &Arc<Vec<NodeCostContext>>) {
        let mut map = self.lock(self.shard(shape));
        if let Some(entry) = map.peek_mut(shape) {
            entry.contexts.get_or_insert_with(|| Arc::clone(contexts));
        } else {
            let mut entry = self.empty_entry();
            entry.contexts = Some(Arc::clone(contexts));
            map.try_insert(shape.to_owned(), entry);
        }
    }

    fn get_fits(&self, shape: &str, sig: &FitSignature) -> Option<Arc<NodeFits>> {
        let c = &self.counters;
        self.probe(shape, &c.fit_hits, &c.fit_misses, |e| {
            e.fits.get(sig).map(|f| Arc::clone(f))
        })
    }

    fn put_fits(&self, shape: &str, sig: &FitSignature, fits: &Arc<NodeFits>) {
        let mut map = self.lock(self.shard(shape));
        if !map.contains(shape) && !map.try_insert(shape.to_owned(), self.empty_entry()) {
            return;
        }
        if let Some(entry) = map.peek_mut(shape) {
            if !entry.fits.contains(sig) {
                entry.fits.try_insert(sig.clone(), Arc::clone(fits));
            }
        }
    }
}

/// A point-in-time snapshot of [`SharedSelEstCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    pub evictions: u64,
    /// Poisoned-lock recoveries (see [`CacheStats::poison_recoveries`]).
    pub poison_recoveries: u64,
}

type SelShard = Mutex<EvictingMap<String, SelEstimates>>;

/// Thread-safe selectivity-estimate cache: fully qualified instance key →
/// [`SelEstimates`]. The key already encodes shape, catalog fingerprint,
/// literal key, sample fingerprint, and the aggregate-cardinality source
/// (built by `Predictor::predict_with_caches`), so one instance is safe to
/// share across catalogs, sample sets, and predictor configs.
///
/// Sharded by FNV-1a of the instance key, one [`EvictingMap`] behind one
/// mutex per shard — the same layout as [`SharedFitCache`].
pub struct SharedSelEstCache {
    shards: Vec<SelShard>,
    hits: Counter,
    misses: Counter,
    poison_recoveries: Counter,
    injector: Option<Arc<dyn FaultInjector>>,
}

impl SharedSelEstCache {
    pub fn new(max_entries: usize, eviction: EvictionPolicy) -> Self {
        Self::sharded(max_entries, eviction, DEFAULT_SHARDS)
    }

    /// Builds the cache with an explicit requested shard count (clamped
    /// exactly like [`SharedFitCache`]); `new` uses [`DEFAULT_SHARDS`].
    pub fn sharded(max_entries: usize, eviction: EvictionPolicy, shards: usize) -> Self {
        let n = effective_shards(shards, max_entries);
        let per_shard = max_entries.div_ceil(n);
        Self {
            shards: (0..n)
                .map(|_| Mutex::new(EvictingMap::new(per_shard, eviction)))
                .collect(),
            hits: Counter::detached(),
            misses: Counter::detached(),
            poison_recoveries: Counter::detached(),
            injector: None,
        }
    }

    /// Wires a fault injector into the lookup path
    /// ([`FaultSite::SelCacheProbe`]); see [`SharedFitCache::with_injector`].
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = injector.active().then_some(injector);
        self
    }

    /// Rebinds the probe counters onto `registry` (series
    /// `uaq_cache_probes_total{cache="selest"}`); see
    /// [`SharedFitCache::instrumented`].
    pub fn instrumented(mut self, registry: &Registry) -> Self {
        let probe = |outcome: &str| {
            registry.counter(
                "uaq_cache_probes_total",
                &[("cache", "selest"), ("outcome", outcome)],
            )
        };
        self.hits = probe("hit");
        self.misses = probe("miss");
        self.poison_recoveries =
            registry.counter("uaq_cache_poison_recoveries_total", &[("cache", "selest")]);
        self
    }

    /// The shard owning `key`.
    fn shard(&self, key: &str) -> &SelShard {
        &self.shards[shard_of(key, self.shards.len())]
    }

    /// See [`SharedFitCache::lock`].
    fn lock<'a>(&self, shard: &'a SelShard) -> MutexGuard<'a, EvictingMap<String, SelEstimates>> {
        lock_recover_with(shard, &self.poison_recoveries, EvictingMap::clear)
    }

    /// Exposed for the service/tests: how many shards this cache runs.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn stats(&self) -> SelCacheStats {
        let (mut entries, mut evictions) = (0, 0);
        for shard in &self.shards {
            let map = self.lock(shard);
            entries += map.len();
            evictions += map.evictions();
        }
        SelCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries,
            evictions,
            poison_recoveries: self.poison_recoveries.get(),
        }
    }

    /// Drops every entry (counters are retained).
    pub fn clear(&self) {
        for shard in &self.shards {
            self.lock(shard).clear();
        }
    }
}

impl Default for SharedSelEstCache {
    fn default() -> Self {
        let config = CacheConfig::default();
        Self::new(config.max_sel_entries, config.eviction)
    }
}

impl SelEstCache for SharedSelEstCache {
    fn get(&self, key: &str) -> Option<SelEstimates> {
        let mut map = self.lock(self.shard(key));
        let hit = if forced_miss(&self.injector, FaultSite::SelCacheProbe) {
            None
        } else {
            map.get(key).map(|e| e.clone())
        };
        drop(map);
        match &hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        };
        hit
    }

    fn put(&self, key: &str, estimates: &SelEstimates) {
        let mut map = self.lock(self.shard(key));
        if !map.contains(key) {
            map.try_insert(key.to_owned(), estimates.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_stats::Normal;

    fn sig(mean: f64) -> FitSignature {
        FitSignature::new(8, &[Normal::new(mean, 0.01)])
    }

    fn fit_cache(policy: EvictionPolicy, max_shapes: usize) -> SharedFitCache {
        SharedFitCache::new(CacheConfig {
            max_shapes,
            eviction: policy,
            ..CacheConfig::default()
        })
    }

    #[test]
    fn contexts_round_trip_and_count() {
        let cache = SharedFitCache::default();
        assert!(cache.get_contexts("s1").is_none());
        let ctxs = Arc::new(Vec::new());
        cache.put_contexts("s1", &ctxs);
        assert!(cache.get_contexts("s1").is_some());
        let stats = cache.stats();
        assert_eq!(stats.context_hits, 1);
        assert_eq!(stats.context_misses, 1);
        assert_eq!(stats.shapes, 1);
    }

    #[test]
    fn fits_key_on_signature() {
        let cache = SharedFitCache::default();
        let fits = Arc::new(Vec::new());
        cache.put_fits("s1", &sig(0.5), &fits);
        assert!(cache.get_fits("s1", &sig(0.5)).is_some());
        assert!(cache.get_fits("s1", &sig(0.6)).is_none());
        assert!(cache.get_fits("s2", &sig(0.5)).is_none());
        assert!((cache.stats().fit_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used_shape() {
        let cache = fit_cache(EvictionPolicy::Lru, 2);
        cache.put_contexts("a", &Arc::new(Vec::new()));
        cache.put_contexts("b", &Arc::new(Vec::new()));
        // Touch "a" so "b" is the LRU.
        assert!(cache.get_contexts("a").is_some());
        cache.put_contexts("c", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("a").is_some(), "recently used survives");
        assert!(cache.get_contexts("b").is_none(), "LRU evicted");
        assert!(cache.get_contexts("c").is_some(), "new entry admitted");
        let stats = cache.stats();
        assert_eq!(stats.shapes, 2);
        assert_eq!(stats.shape_evictions, 1);
    }

    #[test]
    fn lru_order_follows_touches_exactly() {
        let mut m: EvictingMap<&'static str, u32> = EvictingMap::new(3, EvictionPolicy::Lru);
        assert!(m.try_insert("a", 1));
        assert!(m.try_insert("b", 2));
        assert!(m.try_insert("c", 3));
        // Recency order (LRU→MRU) is now a, b, c. Touch a twice, then b:
        // order becomes c, a, b.
        m.get("a");
        m.get("a");
        m.get("b");
        assert!(m.try_insert("d", 4)); // evicts c
        assert!(!m.contains("c"));
        assert!(m.try_insert("e", 5)); // evicts a
        assert!(!m.contains("a"));
        assert!(m.contains("b") && m.contains("d") && m.contains("e"));
        assert_eq!(m.evictions(), 2);
    }

    #[test]
    fn segmented_promotion_protects_hot_entries_from_a_scan() {
        // Capacity 5 ⇒ protected segment of 4. Promote two hot entries,
        // then stream one-shot keys through: the scan churns probation
        // while every protected entry survives.
        let mut m: EvictingMap<String, u32> = EvictingMap::new(5, EvictionPolicy::Segmented);
        assert!(m.try_insert("hot1".into(), 1));
        assert!(m.try_insert("hot2".into(), 2));
        m.get("hot1"); // promote
        m.get("hot2"); // promote
        for i in 0..50 {
            m.try_insert(format!("scan{i}"), i);
        }
        assert!(m.contains("hot1"), "protected entry flushed by scan");
        assert!(m.contains("hot2"), "protected entry flushed by scan");
        assert_eq!(m.len(), 5);
        // A plain LRU of the same capacity loses both under the same scan.
        let mut lru: EvictingMap<String, u32> = EvictingMap::new(5, EvictionPolicy::Lru);
        lru.try_insert("hot1".into(), 1);
        lru.try_insert("hot2".into(), 2);
        lru.get("hot1");
        lru.get("hot2");
        for i in 0..50 {
            lru.try_insert(format!("scan{i}"), i);
        }
        assert!(!lru.contains("hot1") && !lru.contains("hot2"));
    }

    #[test]
    fn fill_paths_do_not_promote_new_shapes() {
        // Regression: the full miss sequence a service worker runs
        // (get_fits miss → get_contexts miss → put_contexts → put_fits)
        // must count as ONE use, not two — otherwise every one-shot shape
        // is promoted straight into the protected segment and an ad-hoc
        // burst demotes and flushes the genuinely hot templates.
        let cache = fit_cache(EvictionPolicy::Segmented, 5);
        for hot in ["hot1", "hot2"] {
            cache.put_contexts(hot, &Arc::new(Vec::new()));
            assert!(cache.get_contexts(hot).is_some()); // a real reuse: promote
        }
        for i in 0..50 {
            let shape = format!("adhoc{i}");
            assert!(cache.get_fits(&shape, &sig(0.5)).is_none());
            assert!(cache.get_contexts(&shape).is_none());
            cache.put_contexts(&shape, &Arc::new(Vec::new()));
            cache.put_fits(&shape, &sig(0.5), &Arc::new(Vec::new()));
        }
        assert!(
            cache.get_contexts("hot1").is_some(),
            "ad-hoc burst must not flush a protected template"
        );
        assert!(cache.get_contexts("hot2").is_some());
        assert_eq!(cache.stats().shapes, 5);
    }

    #[test]
    fn segmented_protected_overflow_demotes_lru_protected() {
        // Capacity 5 ⇒ protected cap 4. Promote 5 entries; the first
        // promoted is demoted back to probation and becomes evictable.
        let mut m: EvictingMap<String, u32> = EvictingMap::new(5, EvictionPolicy::Segmented);
        for (i, k) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            assert!(m.try_insert((*k).into(), i as u32));
        }
        for k in ["a", "b", "c", "d", "e"] {
            m.get(k); // promote in order; promoting e demotes a
        }
        // One insert evicts from probation — which now holds exactly "a".
        assert!(m.try_insert("f".into(), 9));
        assert!(!m.contains("a"), "demoted LRU-protected entry evicted");
        for k in ["b", "c", "d", "e"] {
            assert!(m.contains(k), "{k} should still be protected");
        }
    }

    #[test]
    fn capacity_zero_behaves_as_no_cache() {
        let cache = fit_cache(EvictionPolicy::Segmented, 0);
        let fits = Arc::new(Vec::new());
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        cache.put_fits("s1", &sig(0.5), &fits);
        assert!(cache.get_contexts("s1").is_none());
        assert!(cache.get_fits("s1", &sig(0.5)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.shapes, 0);
        assert_eq!(stats.shape_evictions, 0);

        let sel = SharedSelEstCache::new(0, EvictionPolicy::Lru);
        sel.put("k", &SelEstimates::from_vec(Vec::new()));
        assert!(uaq_cost::SelEstCache::get(&sel, "k").is_none());
        assert_eq!(sel.stats().entries, 0);
    }

    #[test]
    fn sel_cache_round_trips_shared_allocation() {
        let sel = SharedSelEstCache::default();
        let est = SelEstimates::from_vec(Vec::new());
        sel.put("k1", &est);
        let hit = uaq_cost::SelEstCache::get(&sel, "k1").expect("stored");
        assert!(hit.ptr_eq(&est), "hit must share the cached allocation");
        assert!(uaq_cost::SelEstCache::get(&sel, "k2").is_none());
        let stats = sel.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        sel.clear();
        assert!(uaq_cost::SelEstCache::get(&sel, "k1").is_none());
        assert_eq!(sel.stats().entries, 0);
    }

    #[test]
    fn sel_cache_eviction_counts() {
        let sel = SharedSelEstCache::new(2, EvictionPolicy::Lru);
        for k in ["a", "b", "c", "d"] {
            sel.put(k, &SelEstimates::from_vec(Vec::new()));
        }
        let stats = sel.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
        assert!(uaq_cost::SelEstCache::get(&sel, "a").is_none());
        assert!(uaq_cost::SelEstCache::get(&sel, "d").is_some());
    }

    #[test]
    fn clear_retains_counters() {
        let cache = SharedFitCache::default();
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("s1").is_some());
        cache.clear();
        assert!(cache.get_contexts("s1").is_none());
        let stats = cache.stats();
        assert_eq!(stats.shapes, 0);
        assert_eq!(stats.context_hits, 1);
        assert_eq!(stats.context_misses, 1);
    }

    #[test]
    fn lazy_queue_compaction_keeps_memory_bounded() {
        let mut m: EvictingMap<&'static str, u32> = EvictingMap::new(2, EvictionPolicy::Lru);
        m.try_insert("a", 1);
        m.try_insert("b", 2);
        for _ in 0..10_000 {
            m.get("a");
            m.get("b");
        }
        assert!(
            m.queues[0].len() <= 2 * m.len() + 8,
            "queue grew unboundedly: {}",
            m.queues[0].len()
        );
    }

    /// Naive reference for [`EvictingMap`]: `[probation, protected]`, each
    /// a `Vec` ordered LRU → MRU, every operation a linear scan.
    struct ModelMap {
        capacity: usize,
        policy: EvictionPolicy,
        segments: [Vec<(u32, u64)>; 2],
        evictions: u64,
    }

    impl ModelMap {
        fn find(&self, key: u32) -> Option<(usize, usize)> {
            (0..2).find_map(|s| {
                let at = self.segments[s].iter().position(|(k, _)| *k == key)?;
                Some((s, at))
            })
        }

        fn value(&mut self, key: u32) -> Option<&mut u64> {
            let (s, at) = self.find(key)?;
            Some(&mut self.segments[s][at].1)
        }

        fn get(&mut self, key: u32) -> Option<&mut u64> {
            let (s, at) = self.find(key)?;
            let protected_cap = self.capacity * PROTECTED_NUM / PROTECTED_DEN;
            let target = match self.policy {
                EvictionPolicy::Lru => 0,
                EvictionPolicy::Segmented if protected_cap == 0 => 0,
                EvictionPolicy::Segmented => 1,
            };
            let entry = self.segments[s].remove(at);
            if s == 0 && target == 1 {
                while self.segments[1].len() + 1 > protected_cap {
                    let demoted = self.segments[1].remove(0);
                    self.segments[0].push(demoted);
                }
            }
            self.segments[target].push(entry);
            self.value(key)
        }

        /// Returns (admitted, victim).
        fn try_insert(&mut self, key: u32, value: u64) -> (bool, Option<u32>) {
            if self.capacity == 0 {
                return (false, None);
            }
            let mut victim = None;
            if self.segments[0].len() + self.segments[1].len() >= self.capacity {
                let s = usize::from(self.segments[0].is_empty());
                victim = Some(self.segments[s].remove(0).0);
                self.evictions += 1;
            }
            self.segments[0].push((key, value));
            (true, victim)
        }
    }

    #[test]
    fn evicting_map_matches_a_naive_ordered_vec_model() {
        const UNIVERSE: u32 = 12;
        let policies = [EvictionPolicy::Lru, EvictionPolicy::Segmented];
        for (p, policy) in policies.into_iter().enumerate() {
            for capacity in 0..=8usize {
                let mut rng = uaq_stats::Rng::new(0xE71C ^ ((p as u64) << 8) ^ capacity as u64);
                let mut real: EvictingMap<u32, u64> = EvictingMap::new(capacity, policy);
                let mut model = ModelMap {
                    capacity,
                    policy,
                    segments: [Vec::new(), Vec::new()],
                    evictions: 0,
                };
                for step in 0..3000u64 {
                    let at = format!("{policy:?} capacity {capacity} step {step}");
                    let key = rng.u64_below(u64::from(UNIVERSE)) as u32;
                    match rng.u64_below(100) {
                        0 => {
                            real.clear();
                            model.segments = [Vec::new(), Vec::new()];
                        }
                        1..=44 => {
                            let (r, m) = (real.get(&key), model.get(key));
                            assert_eq!(r.as_deref(), m.as_deref(), "get: {at}");
                            if let (Some(r), Some(m)) = (r, m) {
                                *r += step;
                                *m += step;
                            }
                        }
                        45..=59 => {
                            let (r, m) = (real.peek_mut(&key), model.value(key));
                            assert_eq!(r.as_deref(), m.as_deref(), "peek_mut: {at}");
                            if let (Some(r), Some(m)) = (r, m) {
                                *r ^= step;
                                *m ^= step;
                            }
                        }
                        _ if real.contains(&key) => {}
                        _ => {
                            let held = |m: &EvictingMap<u32, u64>| -> Vec<u32> {
                                (0..UNIVERSE).filter(|k| m.contains(k)).collect()
                            };
                            let before = held(&real);
                            let admitted = real.try_insert(key, step);
                            let after = held(&real);
                            let victim = before.iter().copied().find(|k| !after.contains(k));
                            assert_eq!(
                                (admitted, victim),
                                model.try_insert(key, step),
                                "insert: {at}"
                            );
                        }
                    }
                    assert_eq!(
                        real.len(),
                        model.segments[0].len() + model.segments[1].len(),
                        "len: {at}"
                    );
                    assert_eq!(real.evictions(), model.evictions, "evictions: {at}");
                    for k in 0..UNIVERSE {
                        assert_eq!(
                            real.peek_mut(&k).copied(),
                            model.value(k).copied(),
                            "key {k}: {at}"
                        );
                    }
                }
            }
        }
    }

    /// One shared cache behind a put / get face, for the tests that pin
    /// what a hit does to either of them.
    struct Face {
        name: &'static str,
        put: Box<dyn Fn(&str)>,
        get: Box<dyn Fn(&str) -> bool>,
        entries: Box<dyn Fn() -> usize>,
    }

    /// Both shared caches at `capacity` entries (small enough to collapse
    /// to one shard, so one `EvictingMap` decides every eviction).
    fn one_shard_faces(policy: EvictionPolicy, capacity: usize) -> [Face; 2] {
        let fit = Arc::new(fit_cache(policy, capacity));
        let sel = Arc::new(SharedSelEstCache::new(capacity, policy));
        assert_eq!((fit.shard_count(), sel.shard_count()), (1, 1));
        let (fit_put, fit_get) = (Arc::clone(&fit), Arc::clone(&fit));
        let (sel_put, sel_get) = (Arc::clone(&sel), Arc::clone(&sel));
        [
            Face {
                name: "fit",
                put: Box::new(move |k| fit_put.put_contexts(k, &Arc::new(Vec::new()))),
                get: Box::new(move |k| fit_get.get_contexts(k).is_some()),
                entries: Box::new(move || fit.stats().shapes),
            },
            Face {
                name: "sel",
                put: Box::new(move |k| sel_put.put(k, &SelEstimates::from_vec(Vec::new()))),
                get: Box::new(move |k| uaq_cost::SelEstCache::get(&*sel_get, k).is_some()),
                entries: Box::new(move || sel.stats().entries),
            },
        ]
    }

    #[test]
    fn every_hit_reaches_the_policy_and_an_evicted_key_stops_answering() {
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Segmented] {
            for face in one_shard_faces(policy, 2) {
                let at = format!("{} {policy:?}", face.name);
                (face.put)("a");
                (face.put)("b");
                for k in ["a", "b", "a"] {
                    assert!((face.get)(k), "{at}: {k} is held");
                }
                // The third hit made `b` the LRU, so `c` displaces `b`.
                (face.put)("c");
                let answered = ["a", "b", "c"].map(|k| (face.get)(k));
                assert_eq!(answered, [true, false, true], "{at}");
                assert_eq!((face.entries)(), 2, "{at}");
            }
        }
    }

    #[test]
    fn shared_cache_hits_touch_exactly_like_a_bare_evicting_map() {
        const KEYS: [&str; 9] = ["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"];
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Segmented] {
            for face in one_shard_faces(policy, 5) {
                let mut bare: EvictingMap<&'static str, ()> = EvictingMap::new(5, policy);
                let mut rng = uaq_stats::Rng::new(0x70C4);
                for step in 0..2000 {
                    // Skewed picks, so some keys are hit many times in a
                    // row while others churn through the cold end.
                    let pick = rng.usize_below(KEYS.len()).min(rng.usize_below(KEYS.len()));
                    let key = KEYS[pick];
                    let hit = (face.get)(key);
                    assert_eq!(
                        hit,
                        bare.get(key).is_some(),
                        "{} {policy:?} step {step}: {key}",
                        face.name
                    );
                    if !hit {
                        (face.put)(key);
                        bare.try_insert(key, ());
                    }
                }
                assert_eq!((face.entries)(), bare.len());
            }
        }
    }

    #[test]
    fn poisoned_fit_cache_recovers_by_invalidating() {
        let cache = Arc::new(SharedFitCache::default());
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        let poisoner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _guard = cache.lock(cache.shard("s1"));
                panic!("poison the cache lock");
            })
        };
        assert!(poisoner.join().is_err());
        // The next probe recovers: no panic, contents invalidated, counted.
        assert!(cache.get_contexts("s1").is_none());
        let stats = cache.stats();
        assert_eq!(stats.poison_recoveries, 1);
        assert_eq!(stats.shapes, 0);
        // And the cache is fully serviceable again.
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("s1").is_some());
        assert_eq!(
            cache.stats().poison_recoveries,
            1,
            "recovered once, not per lock"
        );
    }

    #[test]
    fn poisoned_sel_cache_recovers_by_invalidating() {
        let sel = Arc::new(SharedSelEstCache::default());
        sel.put("k", &SelEstimates::from_vec(Vec::new()));
        let poisoner = {
            let sel = Arc::clone(&sel);
            std::thread::spawn(move || {
                let _guard = sel.lock(sel.shard("k"));
                panic!("poison the sel cache lock");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(uaq_cost::SelEstCache::get(&*sel, "k").is_none());
        let stats = sel.stats();
        assert_eq!(stats.poison_recoveries, 1);
        assert_eq!(stats.entries, 0);
        sel.put("k", &SelEstimates::from_vec(Vec::new()));
        assert!(uaq_cost::SelEstCache::get(&*sel, "k").is_some());
    }

    #[test]
    fn injected_probe_miss_forces_misses_without_corrupting_contents() {
        struct AlwaysMiss;
        impl crate::fault::FaultInjector for AlwaysMiss {
            fn inject(&self, _site: FaultSite, _worker: usize) -> Option<Fault> {
                Some(Fault::ProbeMiss)
            }
        }
        let cache = SharedFitCache::default().with_injector(Arc::new(AlwaysMiss));
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("s1").is_none(), "probe forced to miss");
        assert_eq!(cache.stats().shapes, 1, "the entry itself is intact");

        let sel = SharedSelEstCache::new(64, EvictionPolicy::default())
            .with_injector(Arc::new(AlwaysMiss));
        sel.put("k", &SelEstimates::from_vec(Vec::new()));
        assert!(uaq_cost::SelEstCache::get(&sel, "k").is_none());
        assert_eq!(sel.stats().entries, 1);
    }

    #[test]
    fn inactive_injector_is_dropped_at_construction() {
        let cache = SharedFitCache::default().with_injector(Arc::new(crate::fault::NoFaults));
        assert!(cache.injector.is_none(), "inactive injector adds no probes");
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("s1").is_some());
    }

    #[test]
    fn instrumented_caches_count_into_the_registry() {
        let registry = Registry::new();
        let cache = SharedFitCache::default().instrumented(&registry);
        let sel = SharedSelEstCache::default().instrumented(&registry);
        assert!(cache.get_contexts("s1").is_none());
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("s1").is_some());
        sel.put("k", &SelEstimates::from_vec(Vec::new()));
        assert!(uaq_cost::SelEstCache::get(&sel, "k").is_some());
        let snap = registry.snapshot();
        let probe = |cache: &str, outcome: &str| {
            snap.counter(
                "uaq_cache_probes_total",
                &[("cache", cache), ("outcome", outcome)],
            )
        };
        assert_eq!(probe("fit_context", "hit"), Some(1));
        assert_eq!(probe("fit_context", "miss"), Some(1));
        assert_eq!(probe("selest", "hit"), Some(1));
        // The same cells back `stats()` — no second bookkeeping path.
        assert_eq!(cache.stats().context_hits, 1);
        assert_eq!(sel.stats().hits, 1);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(SharedFitCache::default());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200 {
                        let shape = format!("shape-{}", i % 10);
                        let s = sig((t * 200 + i) as f64 / 4000.0);
                        if cache.get_fits(&shape, &s).is_none() {
                            cache.put_fits(&shape, &s, &Arc::new(Vec::new()));
                        }
                        cache.put_contexts(&shape, &Arc::new(Vec::new()));
                        assert!(cache.get_contexts(&shape).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.stats().shapes, 10);
    }

    #[test]
    fn hit_rates_are_nan_on_zero_probes() {
        // The unified zero-denominator convention: "no probes yet" is not
        // "0% hit rate" — it renders as n/a, matching violation_rate.
        let stats = CacheStats::default();
        assert!(stats.fit_hit_rate().is_nan());
        assert!(stats.sel_hit_rate().is_nan());
        let one_miss = CacheStats {
            fit_misses: 1,
            sel_misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(one_miss.fit_hit_rate(), 0.0, "a real 0% stays 0%");
        assert_eq!(one_miss.sel_hit_rate(), 0.0);
    }

    #[test]
    fn shard_counts_follow_capacity_clamp() {
        assert_eq!(SharedFitCache::default().shard_count(), DEFAULT_SHARDS);
        assert_eq!(fit_cache(EvictionPolicy::Lru, 2).shard_count(), 1);
        assert_eq!(fit_cache(EvictionPolicy::Lru, 0).shard_count(), 1);
        assert_eq!(SharedSelEstCache::default().shard_count(), DEFAULT_SHARDS);
        assert_eq!(
            SharedSelEstCache::new(2, EvictionPolicy::Lru).shard_count(),
            1
        );
        assert_eq!(
            SharedSelEstCache::sharded(16384, EvictionPolicy::Lru, 3).shard_count(),
            3
        );
        // Routing is deterministic and in range for every shard count.
        for shards in 1..=16 {
            let a = shard_of("shape-a", shards);
            assert!(a < shards);
            assert_eq!(a, shard_of("shape-a", shards), "routing is stable");
        }
    }

    #[test]
    fn sharded_fit_cache_counts_consistently_across_shards() {
        // Spread keys across all shards; per-shard stats must aggregate.
        let cache = SharedFitCache::default();
        assert_eq!(cache.shard_count(), DEFAULT_SHARDS);
        for i in 0..64 {
            let shape = format!("shape-{i}");
            cache.put_contexts(&shape, &Arc::new(Vec::new()));
            assert!(cache.get_contexts(&shape).is_some());
        }
        let stats = cache.stats();
        assert_eq!(stats.shapes, 64);
        assert_eq!(stats.context_hits, 64);
        assert_eq!(stats.context_misses, 0);
    }
}
