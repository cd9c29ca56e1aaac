//! End-to-end data integrity for the generic engines: per-tile output
//! digests, silent-corruption detection, and self-healing recompute.
//!
//! ## Why recompute is sound
//!
//! Every benchmark's [`DpSpec`] contract guarantees that `run_tile`
//! produces the *identical* floating-point sequence under any legal
//! schedule, so a tile's clean output digest is an exact oracle — no
//! tolerance window, plain bitwise comparison. Corruption is injected
//! (and, in the threat model, strikes) only at tile *write* time, and
//! verification happens inside the producing task **before** the tile's
//! readiness item is put (CnC) or its stage barrier releases
//! (fork-join). Every input a tile read was therefore already verified
//! by its own producer, so restoring the tile's pre-image and re-running
//! the kernel deterministically regenerates the clean output — even for
//! the destructive GE/FW kernels, whose tile `(k, i, j)` overwrites the
//! very region its `(k-1, i, j)` read refers to.
//!
//! Verification is strictly *producer-side* for the same reason it must
//! be: a consumer-side re-hash of a read region is unsound under CnC —
//! for FW/GE a later-pivot writer of the same region has no transitive
//! ordering against an earlier-pivot reader, so the consumer could
//! observe a half-written (yet perfectly legal) region.
//!
//! ## Modes
//!
//! [`IntegrityMode`] selects the detector: `Off` (corruption flows
//! silently — the baseline), `Sample(rate)` (a seeded, deterministic
//! subset of tiles is digest-verified), `Full` (every tile), and
//! `DualExecute(rate)` (a sampled tile is executed twice from its
//! pre-image and the two digests must agree — detection without
//! trusting any single execution).
//!
//! Repair is bounded: after [`IntegrityConfig::max_repair_attempts`]
//! recomputes still disagree, the engine records a structured
//! [`IntegrityError`] carrying the tile identity and both digests, lets
//! the graph quiesce (the last value is still published so no consumer
//! parks forever), and the report carries the error to the caller.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use recdp_cnc::{CorruptionSite, FaultInjector};

use crate::spec::{DpSpec, TileKey};
use crate::table::TileRegion;

/// What fraction of tiles the engines digest-verify, and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntegrityMode {
    /// No verification: injected corruption flows into consumers
    /// silently. The baseline the other modes are measured against.
    Off,
    /// Verify a seeded, deterministic sample of tiles (rate in
    /// `[0, 1]`). Detection is schedule-independent: whether a tile is
    /// sampled depends only on the seed and the tile identity.
    Sample(f64),
    /// Verify every tile. With corruption injected at write time this
    /// detects 100% of corrupted tiles before any consumer reads them.
    Full,
    /// Re-execute a sampled tile from its pre-image and require the two
    /// independent executions to agree bitwise — detection that does
    /// not trust any single execution's digest.
    DualExecute(f64),
}

impl IntegrityMode {
    /// True when this tile is digest-verified under the mode.
    fn samples(self, seed: u64, tile_hash: u64) -> bool {
        match self {
            IntegrityMode::Off => false,
            IntegrityMode::Full => true,
            IntegrityMode::Sample(rate) | IntegrityMode::DualExecute(rate) => {
                sample_roll(seed, tile_hash) < rate
            }
        }
    }
}

/// Facade-level integrity policy: everything a caller chooses except
/// the fault injector (which the resilience options already carry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrityOptions {
    /// Detector mode (default [`IntegrityMode::Off`]).
    pub mode: IntegrityMode,
    /// Seed for the sampling decisions (`Sample` / `DualExecute`).
    pub seed: u64,
    /// Bounded repair: recompute attempts per tile before escalating to
    /// an [`IntegrityError`].
    pub max_repair_attempts: u32,
}

impl Default for IntegrityOptions {
    fn default() -> Self {
        IntegrityOptions {
            mode: IntegrityMode::Off,
            seed: 0,
            max_repair_attempts: 3,
        }
    }
}

impl IntegrityOptions {
    /// The runtime configuration of a run declared with these options,
    /// with `injector` attached as the corruption source (the same plan
    /// that injects step failures also flips tile cells and mangles put
    /// payloads) — or `None` when the declared mode is
    /// [`IntegrityMode::Off`]. This is the one place the checked /
    /// unchecked decision is made: on `None` the engines run unchecked —
    /// no [`IntegrityState`], no anti-dependence edges, item payload `0`
    /// — even if an injector is armed for other fault classes. Note
    /// `IntegrityMode::Sample(0.0)` is *not* `Off`: it injects without
    /// ever verifying — the "silent corruption" baseline. An
    /// [`IntegrityConfig`] built explicitly is always a checked run,
    /// whatever its mode.
    pub fn config(&self, injector: Option<&Arc<dyn FaultInjector>>) -> Option<IntegrityConfig> {
        if self.mode == IntegrityMode::Off {
            return None;
        }
        let mut cfg = IntegrityConfig::from(*self);
        cfg.injector = injector.cloned();
        Some(cfg)
    }
}

/// An event the integrity layer reports as it happens, for bridging to
/// a tracer without a `kernels -> trace` dependency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntegrityEvent {
    /// A digest mismatch was observed on `tile` (cell corruption caught
    /// by verification, or a mangled item payload caught by a consumer).
    CorruptionDetected {
        /// Step (or item collection, for payload corruption) name.
        step: &'static str,
        /// The tile whose digest mismatched.
        tile: TileKey,
    },
    /// A quarantined tile was recomputed from its pre-image.
    TileRecomputed {
        /// Step name of the recomputing task.
        step: &'static str,
        /// The recomputed tile.
        tile: TileKey,
    },
}

/// Observer callback receiving [`IntegrityEvent`]s as they happen.
pub type IntegrityObserver = Arc<dyn Fn(&IntegrityEvent) + Send + Sync>;

/// Full engine-level integrity configuration: the policy plus the
/// (optional) fault injector whose corruption hooks the engines consult
/// and an (optional) event observer.
#[derive(Clone)]
pub struct IntegrityConfig {
    /// Detector mode.
    pub mode: IntegrityMode,
    /// Injector consulted for cell flips at tile-write time and payload
    /// masks at item-put time. `None` = detect-only (nothing to detect
    /// unless real corruption strikes).
    pub injector: Option<Arc<dyn FaultInjector>>,
    /// Seed for the sampling decisions.
    pub seed: u64,
    /// Recompute attempts per tile before escalating.
    pub max_repair_attempts: u32,
    /// Event observer (e.g. a tracer bridge).
    pub observer: Option<IntegrityObserver>,
}

impl IntegrityConfig {
    /// Detect-only configuration with the given mode and the
    /// [`IntegrityOptions`] defaults for everything else.
    pub fn new(mode: IntegrityMode) -> Self {
        IntegrityConfig {
            mode,
            ..IntegrityConfig::from(IntegrityOptions::default())
        }
    }

    /// Arms a fault injector whose `corrupt_tile` / `corrupt_put_payload`
    /// hooks the engines will consult.
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the bounded-repair attempt limit.
    pub fn with_max_repair_attempts(mut self, attempts: u32) -> Self {
        self.max_repair_attempts = attempts;
        self
    }

    /// Installs an event observer.
    pub fn with_observer(mut self, observer: IntegrityObserver) -> Self {
        self.observer = Some(observer);
        self
    }
}

impl From<IntegrityOptions> for IntegrityConfig {
    fn from(opts: IntegrityOptions) -> Self {
        IntegrityConfig {
            mode: opts.mode,
            injector: None,
            seed: opts.seed,
            max_repair_attempts: opts.max_repair_attempts,
            observer: None,
        }
    }
}

impl std::fmt::Debug for IntegrityConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntegrityConfig")
            .field("mode", &self.mode)
            .field("injector", &self.injector.is_some())
            .field("seed", &self.seed)
            .field("max_repair_attempts", &self.max_repair_attempts)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

/// A tile whose output could not be repaired within the bounded number
/// of recompute attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityError {
    /// The unrepairable tile.
    pub tile: TileKey,
    /// The digest the producer expected (last clean reference).
    pub expected_digest: u64,
    /// The digest actually observed after the final attempt.
    pub observed_digest: u64,
    /// Recompute attempts spent before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tile {:?} unrepairable after {} recompute attempts \
             (expected digest {:#018x}, observed {:#018x})",
            self.tile, self.attempts, self.expected_digest, self.observed_digest
        )
    }
}

impl std::error::Error for IntegrityError {}

/// What the integrity layer saw over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Tiles digest-verified (sampled tiles, or all under `Full`).
    pub tiles_verified: u64,
    /// Digest mismatches observed on tile outputs (cell corruption).
    pub corruptions_detected: u64,
    /// Recompute-from-pre-image repairs executed.
    pub tiles_recomputed: u64,
    /// Mangled item payloads caught by consumers (CnC engine only).
    pub put_corruptions_detected: u64,
    /// First unrepairable tile, if any.
    pub error: Option<IntegrityError>,
}

impl IntegrityReport {
    /// Converts the report into a result: `Err` if a tile escalated.
    pub fn ok(self) -> Result<IntegrityReport, IntegrityError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self),
        }
    }

    /// Folds another run's report into this one — counters add, the
    /// first error wins. Batch drivers running many checked graphs (or
    /// many registrations on one graph) merge per-run reports into one
    /// job-level report with this.
    pub fn merge(self, other: IntegrityReport) -> IntegrityReport {
        IntegrityReport {
            tiles_verified: self.tiles_verified + other.tiles_verified,
            corruptions_detected: self.corruptions_detected + other.corruptions_detected,
            tiles_recomputed: self.tiles_recomputed + other.tiles_recomputed,
            put_corruptions_detected: self.put_corruptions_detected
                + other.put_corruptions_detected,
            error: self.error.or(other.error),
        }
    }
}

/// Shared integrity runtime handed to the engines: the configuration
/// plus the counters, the per-tile digest registry and the first-error
/// slot. One per checked run, shared across worker threads.
pub struct IntegrityState {
    cfg: IntegrityConfig,
    tiles_verified: AtomicU64,
    corruptions_detected: AtomicU64,
    tiles_recomputed: AtomicU64,
    put_corruptions_detected: AtomicU64,
    /// Producer-registered clean digests, compared against the item
    /// payload a consumer received (put-corruption detection). Inserted
    /// *before* the item put, so the put's happens-before edge makes the
    /// entry visible to every consumer.
    registry: Mutex<HashMap<TileKey, u64>>,
    /// Tiles whose mangled payload was already counted. CnC's
    /// abort-and-retry re-executes a step from scratch (re-reading every
    /// item), so without this dedup the detection counter would depend
    /// on the schedule's retry count instead of on the corruption.
    detected_puts: Mutex<HashSet<TileKey>>,
    error: Mutex<Option<IntegrityError>>,
}

impl IntegrityState {
    /// Fresh state for one checked run.
    pub fn new(cfg: IntegrityConfig) -> Self {
        IntegrityState {
            cfg,
            tiles_verified: AtomicU64::new(0),
            corruptions_detected: AtomicU64::new(0),
            tiles_recomputed: AtomicU64::new(0),
            put_corruptions_detected: AtomicU64::new(0),
            registry: Mutex::new(HashMap::new()),
            detected_puts: Mutex::new(HashSet::new()),
            error: Mutex::new(None),
        }
    }

    /// The configuration this state was created with.
    pub fn config(&self) -> &IntegrityConfig {
        &self.cfg
    }

    /// Snapshot of the counters and the first error, if any.
    pub fn report(&self) -> IntegrityReport {
        IntegrityReport {
            tiles_verified: self.tiles_verified.load(Ordering::Acquire),
            corruptions_detected: self.corruptions_detected.load(Ordering::Acquire),
            tiles_recomputed: self.tiles_recomputed.load(Ordering::Acquire),
            put_corruptions_detected: self.put_corruptions_detected.load(Ordering::Acquire),
            error: *self.error.lock().expect("integrity error slot poisoned"),
        }
    }

    fn emit(&self, event: IntegrityEvent) {
        if let Some(obs) = &self.cfg.observer {
            obs(&event);
        }
    }

    fn record_error(&self, err: IntegrityError) {
        let mut slot = self.error.lock().expect("integrity error slot poisoned");
        // Keep the first error: it identifies the tile that actually
        // escalated, later ones may be knock-on effects.
        slot.get_or_insert(err);
    }

    /// Registers a produced tile's digest and returns the payload to put
    /// — the digest, XOR-masked if the injector corrupts this put.
    pub fn outgoing_payload(&self, collection: &'static str, tile: TileKey, digest: u64) -> u64 {
        self.registry
            .lock()
            .expect("integrity registry poisoned")
            .insert(tile, digest);
        let mask = self
            .cfg
            .injector
            .as_ref()
            .and_then(|i| i.corrupt_put_payload(collection, det_hash(&tile)));
        match mask {
            Some(m) => digest ^ m,
            None => digest,
        }
    }

    /// Compares an item payload a consumer received against the
    /// producer-registered digest; counts (and reports) a mismatch.
    /// The tile's *cells* are unaffected by payload corruption, so the
    /// consumer proceeds — single assignment forbids a healing re-put.
    pub fn check_payload(&self, collection: &'static str, tile: TileKey, received: u64) {
        let expected = self
            .registry
            .lock()
            .expect("integrity registry poisoned")
            .get(&tile)
            .copied();
        if let Some(expected) = expected {
            if expected != received {
                let fresh = self
                    .detected_puts
                    .lock()
                    .expect("integrity detected-put set poisoned")
                    .insert(tile);
                if fresh {
                    self.put_corruptions_detected
                        .fetch_add(1, Ordering::Release);
                    self.emit(IntegrityEvent::CorruptionDetected {
                        step: collection,
                        tile,
                    });
                }
            }
        }
    }

    /// Applies the injector's cell flips (if any) for this tile/attempt.
    unsafe fn inject(&self, step: &'static str, tile_hash: u64, attempt: u32, region: &TileRegion) {
        if let Some(inj) = &self.cfg.injector {
            let site = CorruptionSite {
                step,
                tile_hash,
                attempt,
            };
            for flip in inj.corrupt_tile(&site) {
                region.flip_bit(flip.cell, flip.bit);
            }
        }
    }

    /// Verify-and-repair loop for `Sample` / `Full`: the reference
    /// digest is taken right after the kernel ran (before injection);
    /// on mismatch the pre-image is restored and the kernel re-run,
    /// with the injector re-rolled per attempt, until the digests agree
    /// or the attempt budget is spent. Returns the digest the producer
    /// vouches for.
    #[allow(clippy::too_many_arguments)]
    unsafe fn verify_repair<S: DpSpec>(
        &self,
        spec: &S,
        step: &'static str,
        tile: TileKey,
        tile_hash: u64,
        region: &TileRegion,
        pre: &[f64],
        mut reference: u64,
    ) -> u64 {
        self.tiles_verified.fetch_add(1, Ordering::Release);
        let mut attempt = 0u32;
        loop {
            let observed = region.digest();
            if observed == reference {
                return reference;
            }
            self.corruptions_detected.fetch_add(1, Ordering::Release);
            self.emit(IntegrityEvent::CorruptionDetected { step, tile });
            if attempt >= self.cfg.max_repair_attempts {
                self.record_error(IntegrityError {
                    tile,
                    expected_digest: reference,
                    observed_digest: observed,
                    attempts: attempt,
                });
                // Publish the reference anyway so the graph quiesces;
                // the report carries the error to the caller.
                return reference;
            }
            attempt += 1;
            region.restore(pre);
            spec.run_tile(tile);
            reference = region.digest();
            self.inject(step, tile_hash, attempt, region);
            self.tiles_recomputed.fetch_add(1, Ordering::Release);
            self.emit(IntegrityEvent::TileRecomputed { step, tile });
        }
    }

    /// `DualExecute` loop: the tile is re-executed from its pre-image
    /// and two *consecutive independent executions* must agree bitwise —
    /// no single execution's digest is trusted. Injection re-rolls per
    /// execution, so two corrupted executions (which would have to agree
    /// to fool the detector) get independent flips.
    unsafe fn dual_execute<S: DpSpec>(
        &self,
        spec: &S,
        step: &'static str,
        tile: TileKey,
        tile_hash: u64,
        region: &TileRegion,
        pre: &[f64],
    ) -> u64 {
        self.tiles_verified.fetch_add(1, Ordering::Release);
        let mut observed = region.digest();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            region.restore(pre);
            spec.run_tile(tile);
            self.inject(step, tile_hash, attempt, region);
            let next = region.digest();
            if next == observed {
                return observed;
            }
            self.corruptions_detected.fetch_add(1, Ordering::Release);
            self.emit(IntegrityEvent::CorruptionDetected { step, tile });
            if attempt > self.cfg.max_repair_attempts {
                self.record_error(IntegrityError {
                    tile,
                    expected_digest: observed,
                    observed_digest: next,
                    attempts: attempt,
                });
                return next;
            }
            observed = next;
            self.tiles_recomputed.fetch_add(1, Ordering::Release);
            self.emit(IntegrityEvent::TileRecomputed { step, tile });
        }
    }
}

thread_local! {
    /// The pre-image buffer of the tile this thread is executing, kept
    /// between tiles (taken out while in use, so a nested use would
    /// merely allocate its own).
    static PRE_IMAGE: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Runs one tile under the integrity policy: run the kernel, inject,
/// and — if the mode samples this tile — verify/repair against the
/// pre-image taken beforehand. A tile the mode does not sample takes no
/// pre-image (nothing would restore it): the injector's flips flow
/// silently, which is what `Sample(0.0)`, the silent-corruption
/// baseline, measures.
///
/// Returns the digest the producer vouches for, taken right after the
/// kernel ran and before injection; `0` when the spec has no
/// [`DpSpec::tile_region`], when the run is entirely unchecked, or when
/// an unsampled tile's caller does not `publish` it (only the data-flow
/// engine does, as the item payload; the walkers discard it).
///
/// # Safety
/// Same contract as [`DpSpec::run_tile`]: the caller must hold the
/// exclusive right to write this tile (every read dependency completed,
/// no concurrent writer).
pub unsafe fn execute_tile<S: DpSpec>(
    spec: &S,
    step: &'static str,
    tile: TileKey,
    st: &IntegrityState,
    publish: bool,
) -> u64 {
    let Some(region) = spec.tile_region(tile) else {
        // Spec opted out of integrity (no dense table region): run bare.
        spec.run_tile(tile);
        return 0;
    };
    if st.cfg.injector.is_none() && st.cfg.mode == IntegrityMode::Off {
        spec.run_tile(tile);
        return 0;
    }
    let tile_hash = det_hash(&tile);
    if !st.cfg.mode.samples(st.cfg.seed, tile_hash) {
        spec.run_tile(tile);
        let reference = if publish { region.digest() } else { 0 };
        st.inject(step, tile_hash, 0, &region);
        return reference;
    }
    let mut pre = PRE_IMAGE.take();
    region.snapshot_into(&mut pre);
    spec.run_tile(tile);
    let reference = region.digest();
    st.inject(step, tile_hash, 0, &region);
    let vouched = match st.cfg.mode {
        IntegrityMode::Off => unreachable!("Off never samples"),
        IntegrityMode::Sample(_) | IntegrityMode::Full => {
            st.verify_repair(spec, step, tile, tile_hash, &region, &pre, reference)
        }
        IntegrityMode::DualExecute(_) => {
            st.dual_execute(spec, step, tile, tile_hash, &region, &pre)
        }
    };
    PRE_IMAGE.set(pre);
    vouched
}

/// Deterministic hash of a tile key (or any hashable key):
/// `DefaultHasher` uses fixed keys, so the same tile yields the same
/// hash in every run — required for replayable sampling and for the
/// seeded put-corruption rolls.
fn det_hash<K: Hash>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// `splitmix64` mix for the sampling roll (the faults crate keeps its
/// mixer private; any good 64-bit mixer works — sampling only needs to
/// be deterministic and well-distributed, not shared with the injector).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `(seed, tile)` to a uniform `[0, 1)` sampling roll.
fn sample_roll(seed: u64, tile_hash: u64) -> f64 {
    let z = splitmix64(seed ^ splitmix64(tile_hash));
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_rate_monotone() {
        let tiles: Vec<u64> = (0..512)
            .map(|i| det_hash(&(i as u32, 0u32, 0u32)))
            .collect();
        let count =
            |mode: IntegrityMode| tiles.iter().filter(|&&h| mode.samples(0xFEED, h)).count();
        assert_eq!(count(IntegrityMode::Off), 0);
        assert_eq!(count(IntegrityMode::Full), tiles.len());
        let lo = count(IntegrityMode::Sample(0.1));
        let hi = count(IntegrityMode::Sample(0.7));
        assert!(lo < hi && hi < tiles.len(), "lo={lo} hi={hi}");
        // Same seed, same decisions.
        assert_eq!(lo, count(IntegrityMode::Sample(0.1)));
        // Sample and DualExecute share the sampling decision at a rate.
        assert_eq!(hi, count(IntegrityMode::DualExecute(0.7)));
    }

    #[test]
    fn report_ok_surfaces_the_error() {
        let mut report = IntegrityReport::default();
        assert!(report.ok().is_ok());
        let err = IntegrityError {
            tile: (1, 2, 3),
            expected_digest: 7,
            observed_digest: 8,
            attempts: 3,
        };
        report.error = Some(err);
        assert_eq!(report.ok().unwrap_err(), err);
        assert!(err.to_string().contains("unrepairable after 3"));
    }

    #[test]
    fn payload_registry_detects_masked_puts() {
        let st = IntegrityState::new(IntegrityConfig::new(IntegrityMode::Full));
        let p = st.outgoing_payload("tiles", (0, 0, 0), 42);
        assert_eq!(p, 42, "no injector, payload passes through");
        st.check_payload("tiles", (0, 0, 0), p);
        st.check_payload("tiles", (0, 0, 0), p ^ 0b100);
        st.check_payload("tiles", (0, 0, 0), p ^ 0b100); // retry re-read: deduped
        st.check_payload("tiles", (9, 9, 9), 1); // unknown tile: ignored
        assert_eq!(st.report().put_corruptions_detected, 1);
    }
}
