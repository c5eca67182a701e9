//! Post-crash forensic auditor: replay the flight ring against the
//! on-device checkpoint metadata and reconstruct the commit state machine.
//!
//! After a crash the durable bytes hold two independent narratives of the
//! same run: the slot/`CHECK_ADDR` metadata (what the store *is*) and the
//! flight ring (what the protocol was *doing*). [`audit`] cross-examines
//! them. Per checkpoint counter it assigns a [`CheckpointVerdict`] —
//! committed, in flight at some phase, superseded, failed — and it checks
//! the invariants the commit protocol of Listing 1 promises:
//!
//! 1. **Commit counters effectively monotone** — the durable `CHECK_ADDR`
//!    only ever advances (`fetch_max`). Each namespace has its own
//!    `CHECK_ADDR`, so monotonicity is judged *per namespace*: on a
//!    multi-tenant store jobs draw counters from one global sequence
//!    but commit independently, so cross-job commit order legitimately
//!    interleaves. Within a namespace the lock-free publish path can log
//!    two racing winners' `Commit` records slightly out of counter order
//!    (each thread records its own watermark advance after the
//!    `fetch_max`), so an inversion is only a violation when the stale
//!    record's checkpoint has no open window in the ring — a closed or
//!    absent window means the record was fabricated, not raced.
//! 2. **Bounded concurrency** — never more than `slot_count − 1`
//!    checkpoints per namespace, summed over namespaces, between `Begin`
//!    and a terminal event (each namespace keeps one slot for its latest
//!    committed state).
//! 3. **Commit preceded by persist** — a `Commit` record requires the
//!    checkpoint's `MetaPersisted` barrier earlier in the ring.
//! 4. **Recovery restores the newest commit** — the checkpoint the store
//!    would recover has a counter ≥ every `Commit` the ring witnessed
//!    (`CHECK_ADDR` persists *before* the ring's `Commit` record, so the
//!    ring can never be ahead of the durable pointer).
//! 5. **Committed slots are intact** — every slot holding a complete
//!    checkpoint holds a frame that resolves exactly the way recovery
//!    resolves it (the shared `pccheck::codec` resolver: LZ records
//!    decompressed, self references and references into earlier
//!    checkpoints followed, every record's content address and the
//!    end-to-end state digest checked).
//! 6. **Delta chains are whole** — for every recovery target whose commit
//!    carries a `DeltaLink`, every link on its chain must land on a slot
//!    still holding that base (superseded bases stay pinned until their
//!    dependents retire), and every base must have committed per the
//!    ring.
//!
//! A report that violates any invariant means either real corruption or a
//! bug in the checkpointing protocol — `pccheckctl forensics` exits
//! nonzero on it, and CI runs it on a crash-injected store.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use pccheck::codec::payload_digest_matches;
use pccheck::{CheckMeta, FrameTable, PccheckError, RawStoreView, SlotOutcome};
use pccheck_device::PersistentDevice;
use pccheck_telemetry::{FlightEventKind, FlightRecord, FlightRing};

/// How far an in-flight (never terminated) checkpoint got before the
/// crash, per the flight ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InFlightPhase {
    /// `Begin` only: slot leased, payload not yet copied off the GPU.
    Begun,
    /// GPU→DRAM copy finished, payload not yet durable.
    Copied,
    /// Payload durable, metadata barrier not yet taken.
    Persisted,
    /// Metadata barrier durable — one CAS away from commitment.
    MetaPersisted,
}

impl InFlightPhase {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            InFlightPhase::Begun => "begun",
            InFlightPhase::Copied => "copied",
            InFlightPhase::Persisted => "persisted",
            InFlightPhase::MetaPersisted => "meta_persisted",
        }
    }
}

/// The auditor's classification of one checkpoint counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointVerdict {
    /// The checkpoint became the durably published state at some point.
    Committed {
        /// Training iteration it captured.
        iteration: u64,
        /// Slot it occupied.
        slot: u32,
        /// Whether its slot still holds this checkpoint with a payload
        /// that verifies (older commits are legitimately recycled —
        /// `payload_valid: false` alone is not a violation unless this is
        /// the expected recovery target).
        payload_valid: bool,
    },
    /// The crash caught this checkpoint mid-protocol.
    InFlight {
        /// The furthest phase the ring witnessed.
        phase: InFlightPhase,
        /// Slot it was writing into.
        slot: u32,
    },
    /// A newer checkpoint won the commit race.
    Superseded {
        /// Counter of the winner.
        by: u64,
    },
    /// The checkpoint failed (device error / crash injection) and the run
    /// knew it.
    Failed,
}

/// An invariant broken by the reconstructed history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Commit records were not strictly increasing in counter.
    CommitNotMonotone {
        /// The earlier committed counter.
        prev: u64,
        /// The offending later commit.
        next: u64,
    },
    /// More concurrent in-protocol checkpoints than slots allow.
    ConcurrencyExceeded {
        /// Peak concurrent checkpoints observed.
        observed: usize,
        /// Allowed maximum (`slots − 1`).
        limit: usize,
    },
    /// A `Commit` record with no earlier `MetaPersisted` barrier for the
    /// same counter (only flagged when the ring still holds the
    /// checkpoint's `Begin`, i.e. the window wasn't lost to wrap).
    CommitWithoutPersist {
        /// The offending counter.
        counter: u64,
    },
    /// The checkpoint recovery would restore is older than a commit the
    /// ring witnessed as durable.
    RecoveredNotNewest {
        /// Counter recovery would restore (0 = nothing recoverable).
        recovered: u64,
        /// Newest committed counter per the ring.
        newest: u64,
    },
    /// The expected recovery target's frame does not resolve: a record
    /// fails its content address, a reference names no committed record,
    /// or the reconstructed state fails the commit's digest.
    TornCommittedSlot {
        /// Slot of the torn checkpoint.
        slot: u32,
        /// Its counter.
        counter: u64,
    },
    /// A delta checkpoint in the recovery target's chain points at a base
    /// whose slot no longer holds that base — the chain has a gap, so the
    /// pinning rule (bases survive until every dependent retires) broke.
    DeltaChainGap {
        /// The delta checkpoint whose base pointer dangles.
        counter: u64,
        /// The base counter it expected.
        base_counter: u64,
        /// The slot that should hold the base.
        base_slot: u32,
    },
    /// A base in the recovery target's delta chain never committed per the
    /// flight ring (the chain depends on a checkpoint the protocol knows
    /// was in flight or failed).
    DeltaBaseNotCommitted {
        /// The delta checkpoint depending on the dubious base.
        counter: u64,
        /// The base that never committed.
        base_counter: u64,
    },
    /// A slot's durable state word says `Committed{c}` but its meta record
    /// does not carry counter `c`. The commit protocol persists the meta
    /// record *before* the Committed word, so this point of the lattice is
    /// unreachable — seeing it means lost writes or a protocol bug (see
    /// DESIGN §13).
    StateLatticeViolation {
        /// The torn slot.
        slot: u32,
        /// Counter in the durable state word.
        state_counter: u64,
        /// Counter in the slot's meta record (`None` = no valid record).
        meta_counter: Option<u64>,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::CommitNotMonotone { prev, next } => {
                write!(
                    f,
                    "commit counters not monotone: {next} committed after {prev}"
                )
            }
            InvariantViolation::ConcurrencyExceeded { observed, limit } => {
                write!(
                    f,
                    "{observed} concurrent checkpoints exceed the limit of {limit}"
                )
            }
            InvariantViolation::CommitWithoutPersist { counter } => {
                write!(
                    f,
                    "checkpoint {counter} committed without a persisted metadata barrier"
                )
            }
            InvariantViolation::RecoveredNotNewest { recovered, newest } => {
                write!(
                    f,
                    "recovery restores counter {recovered} but the ring saw counter {newest} commit"
                )
            }
            InvariantViolation::TornCommittedSlot { slot, counter } => {
                write!(
                    f,
                    "committed checkpoint {counter} in slot {slot} fails digest verification"
                )
            }
            InvariantViolation::DeltaChainGap {
                counter,
                base_counter,
                base_slot,
            } => {
                write!(
                    f,
                    "delta checkpoint {counter} points at base {base_counter} \
                     but slot {base_slot} no longer holds it"
                )
            }
            InvariantViolation::DeltaBaseNotCommitted {
                counter,
                base_counter,
            } => {
                write!(
                    f,
                    "delta checkpoint {counter} chains onto base {base_counter} that never committed"
                )
            }
            InvariantViolation::StateLatticeViolation {
                slot,
                state_counter,
                meta_counter,
            } => {
                write!(
                    f,
                    "slot {slot} state word says committed#{state_counter} but its meta record {}",
                    match meta_counter {
                        Some(c) => format!("carries counter {c}"),
                        None => "does not decode".to_string(),
                    }
                )
            }
        }
    }
}

/// The auditor's full report.
#[derive(Debug, Clone)]
pub struct ForensicReport {
    /// Verdict per checkpoint counter the ring still holds evidence for.
    pub checkpoints: BTreeMap<u64, CheckpointVerdict>,
    /// Invariant violations (empty = the crash is clean).
    pub violations: Vec<InvariantViolation>,
    /// The checkpoint recovery would restore from the durable metadata.
    pub expected_recovery: Option<pccheck::CheckMeta>,
    /// Flight records replayed (seq-ordered survivors).
    pub ring_records: usize,
    /// Ring cells that held data but failed checksum validation (at most
    /// the torn tail under normal operation).
    pub torn_ring_cells: u32,
    /// Valid cells from an older lap that the scan rejected (a resurrected
    /// stale record would otherwise forge history).
    pub stale_ring_cells: u32,
    /// Whether the ring wrapped (history is a suffix of the run).
    pub ring_wrapped: bool,
    /// Peak concurrent in-protocol checkpoints observed in the ring.
    pub peak_concurrency: usize,
    /// The store's concurrency bound: `slot_count − 1` summed over the
    /// namespaces (each namespace pins its own committed slot), so
    /// `slots − 1` on a store with one owner namespace.
    pub concurrency_limit: usize,
    /// Per-namespace expected recovery heads: `(job, head)` for every
    /// allocated namespace, in directory order.
    pub namespace_recovery: Vec<(u64, Option<pccheck::CheckMeta>)>,
    /// Each slot's post-crash classification, decided from its durable
    /// state word + meta CRC alone (the detectable-recovery lattice; all
    /// [`SlotOutcome::Empty`] on stores formatted before the state-word
    /// region existed).
    pub slot_outcomes: Vec<SlotOutcome>,
}

impl ForensicReport {
    /// `true` when no invariant is violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Counters the crash caught mid-protocol.
    pub fn in_flight(&self) -> Vec<u64> {
        self.checkpoints
            .iter()
            .filter(|(_, v)| matches!(v, CheckpointVerdict::InFlight { .. }))
            .map(|(c, _)| *c)
            .collect()
    }

    /// Human-readable rendering (the `pccheckctl forensics` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "forensic audit");
        let _ = writeln!(
            out,
            "  flight ring: {} records ({} torn cell(s), {} stale cell(s){})",
            self.ring_records,
            self.torn_ring_cells,
            self.stale_ring_cells,
            if self.ring_wrapped { ", wrapped" } else { "" }
        );
        match &self.expected_recovery {
            Some(m) => {
                let _ = writeln!(
                    out,
                    "  expected recovery: counter {} (iteration {}, slot {}, {} B)",
                    m.counter, m.iteration, m.slot, m.payload_len
                );
            }
            None => {
                let _ = writeln!(out, "  expected recovery: none (no committed checkpoint)");
            }
        }
        for (job, head) in &self.namespace_recovery {
            match head {
                Some(m) => {
                    let _ = writeln!(
                        out,
                        "    job {job}: counter {} (iteration {}, slot {})",
                        m.counter, m.iteration, m.slot
                    );
                }
                None => {
                    let _ = writeln!(out, "    job {job}: no committed checkpoint");
                }
            }
        }
        let _ = writeln!(
            out,
            "  peak concurrency: {} (limit {})",
            self.peak_concurrency, self.concurrency_limit
        );
        if !self.slot_outcomes.is_empty() {
            let _ = writeln!(out, "  slot lattice:");
            for (slot, outcome) in self.slot_outcomes.iter().enumerate() {
                let _ = writeln!(out, "    slot {slot:<3} {outcome}");
            }
        }
        let _ = writeln!(out, "  checkpoints:");
        for (counter, verdict) in &self.checkpoints {
            let line = match verdict {
                CheckpointVerdict::Committed {
                    iteration,
                    slot,
                    payload_valid,
                } => format!(
                    "committed   iter {iteration:<6} slot {slot} payload {}",
                    if *payload_valid {
                        "valid"
                    } else {
                        "recycled/torn"
                    }
                ),
                CheckpointVerdict::InFlight { phase, slot } => {
                    format!("IN-FLIGHT   phase {:<14} slot {slot}", phase.name())
                }
                CheckpointVerdict::Superseded { by } => format!("superseded  by counter {by}"),
                CheckpointVerdict::Failed => "failed".to_string(),
            };
            let _ = writeln!(out, "    #{counter:<5} {line}");
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "  verdict: CLEAN — all invariants hold");
        } else {
            let _ = writeln!(out, "  verdict: {} VIOLATION(S)", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "    ! {v}");
            }
        }
        out
    }
}

/// Audits a crashed (or live) store on `device`: loads the durable
/// metadata view, scans the flight ring (when the store has one), and
/// cross-checks the two. Works while the device is crashed — only durable
/// reads are issued, nothing is mutated.
///
/// Stores formatted without a flight ring still get the metadata-only
/// checks (payload digest verification of the recovery target).
///
/// # Errors
///
/// Returns [`PccheckError::InvalidConfig`] if the device holds no PCcheck
/// store; propagates device read errors.
pub fn audit(device: Arc<dyn PersistentDevice>) -> Result<ForensicReport, PccheckError> {
    let view = RawStoreView::load(device.as_ref())?;
    let expected_recovery = view.expected_recovery();
    // Every namespace keeps one slot for its committed state, so at most
    // `slot_count − 1` of its checkpoints are in protocol at once.
    let concurrency_limit = view
        .namespaces
        .iter()
        .map(|ns| ns.desc.slot_count as usize - 1)
        .sum();
    let namespace_recovery: Vec<(u64, Option<CheckMeta>)> = view
        .namespaces
        .iter()
        .map(|ns| (ns.desc.job, view.expected_recovery_for(ns.desc.job)))
        .collect();

    let (records, torn, stale, wrapped) = if view.flight_records > 0 {
        match FlightRing::scan(device.as_ref(), view.flight_base()) {
            Ok(scan) => {
                let wrapped = scan.wrapped();
                (scan.records, scan.torn_cells, scan.stale_cells, wrapped)
            }
            // A torn ring header: report it as one torn cell and fall back
            // to metadata-only auditing rather than failing the audit.
            Err(_) => (Vec::new(), 1, 0, false),
        }
    } else {
        (Vec::new(), 0, 0, false)
    };

    let mut checkpoints: BTreeMap<u64, CheckpointVerdict> = BTreeMap::new();
    let mut violations: Vec<InvariantViolation> = Vec::new();

    // --- Replay the ring in sequence order. ---------------------------
    // Track per-counter progress and the set of checkpoints currently
    // between Begin and a terminal event. Commit-order invariants are
    // partitioned by namespace (key = owning job; `None` = a slot outside
    // any namespace).
    let mut last_commit: BTreeMap<Option<u64>, u64> = BTreeMap::new();
    let mut newest_ring_commit: BTreeMap<Option<u64>, u64> = BTreeMap::new();
    let mut active: BTreeMap<u64, (InFlightPhase, u32)> = BTreeMap::new();
    let mut peak = 0usize;
    let mut meta_persisted: Vec<u64> = Vec::new();

    for rec in &records {
        match rec.kind {
            FlightEventKind::RunStart
            | FlightEventKind::RecoveryStart
            | FlightEventKind::RecoveryDone => {}
            FlightEventKind::Begin => {
                active.insert(rec.counter, (InFlightPhase::Begun, rec.slot));
                peak = peak.max(active.len());
            }
            FlightEventKind::CopyDone => {
                bump_phase(&mut active, rec, InFlightPhase::Copied);
            }
            FlightEventKind::PayloadPersisted => {
                bump_phase(&mut active, rec, InFlightPhase::Persisted);
            }
            FlightEventKind::MetaPersisted => {
                bump_phase(&mut active, rec, InFlightPhase::MetaPersisted);
                meta_persisted.push(rec.counter);
            }
            FlightEventKind::Commit => {
                let ns = view.namespace_of_slot(rec.slot);
                if let Some(&prev) = last_commit.get(&ns) {
                    // The lock-free publish path lets two racing winners
                    // log their Commit records out of counter order (each
                    // records its own `fetch_max` advance); that benign
                    // inversion always has the stale counter's window
                    // still open. An inversion for a closed (or absent)
                    // window can only be a fabricated or replayed record.
                    if rec.counter <= prev && !active.contains_key(&rec.counter) {
                        violations.push(InvariantViolation::CommitNotMonotone {
                            prev,
                            next: rec.counter,
                        });
                    }
                }
                let watermark = last_commit.entry(ns).or_insert(0);
                *watermark = (*watermark).max(rec.counter);
                let newest = newest_ring_commit.entry(ns).or_insert(0);
                *newest = (*newest).max(rec.counter);
                // Invariant 3: the barrier must precede the commit. Only
                // judgeable when the ring still holds the checkpoint's
                // window (its Begin wasn't lost to wrap).
                let window_complete = active.contains_key(&rec.counter);
                if window_complete && !meta_persisted.contains(&rec.counter) {
                    violations.push(InvariantViolation::CommitWithoutPersist {
                        counter: rec.counter,
                    });
                }
                let slot = active
                    .remove(&rec.counter)
                    .map(|(_, s)| s)
                    .unwrap_or(rec.slot);
                checkpoints.insert(
                    rec.counter,
                    CheckpointVerdict::Committed {
                        iteration: rec.iteration,
                        slot,
                        payload_valid: false, // filled in below
                    },
                );
            }
            FlightEventKind::Superseded => {
                active.remove(&rec.counter);
                checkpoints.insert(rec.counter, CheckpointVerdict::Superseded { by: rec.aux });
            }
            FlightEventKind::Failed => {
                active.remove(&rec.counter);
                checkpoints.insert(rec.counter, CheckpointVerdict::Failed);
            }
        }
    }

    // Whatever is still active was in flight at the crash.
    for (counter, (phase, slot)) in &active {
        checkpoints.insert(
            *counter,
            CheckpointVerdict::InFlight {
                phase: *phase,
                slot: *slot,
            },
        );
    }

    if peak > concurrency_limit && concurrency_limit > 0 {
        violations.push(InvariantViolation::ConcurrencyExceeded {
            observed: peak,
            limit: concurrency_limit,
        });
    }

    // --- Cross-check the ring against the durable metadata. -----------
    // Invariant 4: CHECK_ADDR persists before the ring's Commit record,
    // so recovery can never restore something older than a ring commit.
    // Judged per namespace: each tenant's durable pointer must cover its
    // own ring commits.
    for (&ns, &newest) in &newest_ring_commit {
        if newest == 0 {
            continue;
        }
        let recovered = ns
            .and_then(|job| view.expected_recovery_for(job))
            .map_or(0, |m| m.counter);
        if recovered < newest {
            violations.push(InvariantViolation::RecoveredNotNewest { recovered, newest });
        }
    }

    // Invariant 5 + payload_valid: every slot holds a frame that resolves
    // the way recovery resolves it. Every namespace's recovery head is a
    // target — one tenant's torn head is a violation even when another
    // tenant holds the globally newest commit.
    let recovery_targets: Vec<CheckMeta> =
        namespace_recovery.iter().filter_map(|(_, m)| *m).collect();
    for slot in 0..view.slots {
        let Some(meta) = view.slot_meta[slot as usize] else {
            continue;
        };
        let valid = resolve_frame(device.as_ref(), &view, &meta).is_some();
        if let Some(CheckpointVerdict::Committed { payload_valid, .. }) =
            checkpoints.get_mut(&meta.counter)
        {
            *payload_valid = valid;
        } else if !checkpoints.contains_key(&meta.counter) && view.flight_records == 0 {
            // Ring-less store: synthesize verdicts from metadata alone.
            checkpoints.insert(
                meta.counter,
                CheckpointVerdict::Committed {
                    iteration: meta.iteration,
                    slot,
                    payload_valid: valid,
                },
            );
        }
        if !valid && recovery_targets.iter().any(|m| m.counter == meta.counter) {
            violations.push(InvariantViolation::TornCommittedSlot {
                slot,
                counter: meta.counter,
            });
        }
    }

    // Invariant 7: the per-slot commit-state lattice. Every slot's durable
    // state word + meta CRC must decide to a reachable lattice point; the
    // Torn point (Committed word over a mismatched meta) is unreachable
    // because the protocol persists the meta record before the Committed
    // word. Claimed words whose checkpoints the ring no longer witnesses
    // (wrapped, or a ring-less store) are synthesized as in-flight — the
    // state word alone is enough to decide them (detectable recovery).
    let slot_outcomes = view.slot_outcomes();
    for (slot, outcome) in slot_outcomes.iter().enumerate() {
        match *outcome {
            SlotOutcome::Torn {
                state_counter,
                meta_counter,
            } => {
                violations.push(InvariantViolation::StateLatticeViolation {
                    slot: slot as u32,
                    state_counter,
                    meta_counter,
                });
            }
            SlotOutcome::InFlight { counter } | SlotOutcome::Persisted { counter } => {
                checkpoints
                    .entry(counter)
                    .or_insert(CheckpointVerdict::InFlight {
                        phase: if matches!(outcome, SlotOutcome::Persisted { .. }) {
                            InFlightPhase::MetaPersisted
                        } else {
                            InFlightPhase::Begun
                        },
                        slot: slot as u32,
                    });
            }
            SlotOutcome::Empty | SlotOutcome::Historical { .. } | SlotOutcome::Committed { .. } => {
            }
        }
    }

    // Invariant 6: a linked target's chain must be whole and built on
    // committed bases (its records resolved under invariant 5).
    for target in &recovery_targets {
        audit_delta_chain(&view, target, &checkpoints, &mut violations);
    }

    Ok(ForensicReport {
        checkpoints,
        violations,
        expected_recovery,
        ring_records: records.len(),
        torn_ring_cells: torn,
        stale_ring_cells: stale,
        ring_wrapped: wrapped,
        peak_concurrency: peak,
        concurrency_limit,
        namespace_recovery,
        slot_outcomes,
    })
}

/// Advances a counter's in-flight phase monotonically (records can only
/// move a checkpoint forward).
fn bump_phase(
    active: &mut BTreeMap<u64, (InFlightPhase, u32)>,
    rec: &FlightRecord,
    to: InFlightPhase,
) {
    if let Some((phase, _)) = active.get_mut(&rec.counter) {
        if to > *phase {
            *phase = to;
        }
    }
}

/// Fully materializes `meta`'s frame the way recovery would, through the
/// shared `pccheck::codec` resolver: plans the record reads (base
/// references resolved against the slots' durable frames), verifies every
/// record's content address, and checks the reconstructed state against
/// the commit's digest. `None` on any broken promise.
fn resolve_frame(
    device: &dyn PersistentDevice,
    view: &RawStoreView,
    meta: &CheckMeta,
) -> Option<Vec<u8>> {
    let table = view.read_frame(device, meta)?;
    let mut base = |slot: u32, counter: u64| -> Option<FrameTable> {
        let base = view.slot_meta.get(slot as usize).copied().flatten()?;
        (base.counter == counter)
            .then(|| view.read_frame(device, &base))
            .flatten()
    };
    let reads = table.reads(meta.slot, &mut base)?;
    let mut out = vec![0u8; usize::try_from(table.logical_len).ok()?];
    let mut read = |slot: u32, off: u64, buf: &mut [u8]| {
        let at = view.slot_payload_offset(slot) + off;
        device.read_durable_at(at, buf).is_ok()
    };
    let (mut scratch, mut buf) = (Vec::new(), Vec::new());
    for r in &reads {
        if !r.resolve(&mut read, &mut scratch, &mut buf) {
            return None;
        }
        for &at in &r.targets {
            let at = usize::try_from(at).ok()?;
            out.get_mut(at..at + buf.len())?.copy_from_slice(&buf);
        }
    }
    payload_digest_matches(&out, meta.iteration, meta.digest).then_some(out)
}

/// Walks the recovery target's `DeltaLink` chain, pushing a violation for
/// each broken promise: a dangling base pointer
/// ([`InvariantViolation::DeltaChainGap`]) or a base the ring says never
/// committed ([`InvariantViolation::DeltaBaseNotCommitted`]).
fn audit_delta_chain(
    view: &RawStoreView,
    target: &CheckMeta,
    checkpoints: &BTreeMap<u64, CheckpointVerdict>,
    violations: &mut Vec<InvariantViolation>,
) {
    let mut head = *target;
    // Each link names a slot; a chain longer than the store is a cycle.
    for _ in 0..view.slots {
        let Some(link) = head.delta else { return };
        let base = view
            .slot_meta
            .get(link.base_slot as usize)
            .copied()
            .flatten()
            .filter(|m| m.counter == link.base_counter);
        let Some(base) = base else {
            violations.push(InvariantViolation::DeltaChainGap {
                counter: head.counter,
                base_counter: link.base_counter,
                base_slot: link.base_slot,
            });
            return;
        };
        if matches!(
            checkpoints.get(&base.counter),
            Some(CheckpointVerdict::InFlight { .. }) | Some(CheckpointVerdict::Failed)
        ) {
            violations.push(InvariantViolation::DeltaBaseNotCommitted {
                counter: head.counter,
                base_counter: base.counter,
            });
        }
        head = base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck::{CheckpointStore, CommitOutcome};
    use pccheck_device::fnv1a;
    use pccheck_device::{DeviceConfig, SsdDevice};
    use pccheck_telemetry::FlightEventKind as K;
    use pccheck_util::ByteSize;

    fn flight_store(slots: u32, ring: u32) -> (Arc<dyn PersistentDevice>, CheckpointStore) {
        let cap =
            CheckpointStore::required_capacity_service(ByteSize::from_bytes(64), slots, ring, 1);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), slots, ring)
            .unwrap();
        (dev, st)
    }

    fn commit_one(st: &CheckpointStore, iter: u64, payload: &[u8]) {
        let lease = st.begin_checkpoint(None).unwrap();
        let written = st.write_whole_frame(&lease, payload).unwrap();
        st.persist_payload(&lease, 0, written).unwrap();
        let digest = fnv1a(payload);
        assert_eq!(
            st.commit(lease, iter, payload.len() as u64, digest)
                .unwrap(),
            CommitOutcome::Committed
        );
    }

    /// Commits a delta frame of `full` over the latest committed base,
    /// materializing only the records `ranges` touch.
    fn commit_delta_one(st: &CheckpointStore, iter: u64, full: &[u8], ranges: &[(u64, u64)]) {
        let base = st.latest_committed().unwrap();
        let lease = st.begin_checkpoint(None).unwrap();
        let (packed, written, link) = st.write_delta_frame(&lease, &base, full, ranges).unwrap();
        st.persist_payload(&lease, 0, written).unwrap();
        assert!(link.is_some(), "untouched records reference the base");
        assert_eq!(
            st.commit_with_delta(lease, iter, packed, fnv1a(full), link)
                .unwrap(),
            CommitOutcome::Committed
        );
    }

    #[test]
    fn old_layout_header_is_rejected() {
        let (dev, st) = flight_store(3, 16);
        commit_one(&st, 1, b"one");
        drop(st);
        // The earlier layouts' magics, "PCcheCk1" to "PCcheCk3".
        for old in [
            0x5043_6368_6543_6B31u64,
            0x5043_6368_6543_6B32,
            0x5043_6368_6543_6B33,
        ] {
            dev.write_at(0, &old.to_le_bytes()).unwrap();
            dev.persist(0, 8).unwrap();
            assert!(matches!(
                audit(Arc::clone(&dev)),
                Err(PccheckError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn owner_namespace_is_audited_like_any_other() {
        let (dev, st) = flight_store(3, 64);
        commit_one(&st, 1, b"one");
        commit_one(&st, 2, b"two");
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.concurrency_limit, 2, "N+1 = 3 slots");
        assert_eq!(report.namespace_recovery.len(), 1);
        let (job, head) = report.namespace_recovery[0];
        assert_eq!(job, pccheck::OWNER_JOB);
        assert_eq!(head, report.expected_recovery);
        assert_eq!(head.unwrap().iteration, 2);
    }

    #[test]
    fn delta_chain_audits_clean() {
        let (dev, st) = flight_store(4, 64);
        let mut full = vec![7u8; 64];
        commit_one(&st, 1, &full);
        full[8..16].copy_from_slice(&[1u8; 8]);
        commit_delta_one(&st, 2, &full, &[(8, 8)]);
        full[40..44].copy_from_slice(&[2u8; 4]);
        commit_delta_one(&st, 3, &full, &[(40, 4)]);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        let target = report.expected_recovery.unwrap();
        assert_eq!(target.iteration, 3);
        assert_eq!(target.delta.unwrap().chain_depth, 2);
        assert!(matches!(
            report.checkpoints[&3],
            CheckpointVerdict::Committed {
                payload_valid: true,
                ..
            }
        ));
    }

    #[test]
    fn delta_chain_gap_is_flagged() {
        let (dev, st) = flight_store(4, 64);
        let mut full = vec![9u8; 64];
        commit_one(&st, 1, &full);
        let base = st.latest_committed().unwrap();
        // A delta frame whose link dangles: right counter, wrong slot.
        full[0..4].copy_from_slice(&[5u8; 4]);
        let lease = st.begin_checkpoint(None).unwrap();
        let (packed, written, link) = st
            .write_delta_frame(&lease, &base, &full, &[(0, 4)])
            .unwrap();
        st.persist_payload(&lease, 0, written).unwrap();
        let link = pccheck::DeltaLink {
            base_slot: (base.slot + 1) % 4,
            ..link.unwrap()
        };
        st.commit_with_delta(lease, 2, packed, fnv1a(&full), Some(link))
            .unwrap();
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::DeltaChainGap {
                counter: 2,
                base_counter: 1,
                ..
            }
        )));
    }

    #[test]
    fn delta_base_that_never_committed_is_flagged() {
        let (dev, st) = flight_store(4, 64);
        let mut full = vec![3u8; 64];
        commit_one(&st, 1, &full);
        // Fabricate a ring record claiming checkpoint 1 failed: the chain
        // now depends on a base the protocol disowned.
        st.flight().record(K::Failed, 1, 0, 1, 64, 0);
        full[0..4].copy_from_slice(&[5u8; 4]);
        commit_delta_one(&st, 2, &full, &[(0, 4)]);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::DeltaBaseNotCommitted {
                counter: 2,
                base_counter: 1,
            }
        )));
    }

    #[test]
    fn codec_frame_linked_to_an_in_flight_base_is_flagged() {
        use pccheck::{DeltaPolicy, PersistPipeline, PipelineCtx};
        use pccheck_device::HostBufferPool;
        use pccheck_gpu::{HostSnapshot, SnapshotSource};
        use pccheck_telemetry::{SpanId, Telemetry};

        let (dev, st) = flight_store(4, 64);
        let pipeline = PersistPipeline::new(Arc::new(st))
            .with_writers(1)
            .with_staging(HostBufferPool::new(ByteSize::from_bytes(16), 4))
            .with_codec(true);
        let telemetry = Telemetry::disabled();
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span: SpanId::NONE,
        };
        let mut data = vec![0u8; 64];
        pccheck_util::rng::fill_deterministic(&mut data, 5);
        for step in 1..=2 {
            let src = HostSnapshot {
                data: data.clone(),
                step,
            };
            let digest = src.digest().0;
            pipeline
                .checkpoint_framed(ctx, &src, step, digest, DeltaPolicy::default())
                .unwrap();
        }
        let head = pipeline.store().latest_committed().unwrap();
        let link = head
            .delta
            .expect("the repeat deduplicated against its base");
        // Fabricate a ring that reopens the base's window: per the ring,
        // the codec frame depends on a checkpoint still in flight.
        pipeline
            .store()
            .flight()
            .record(K::Begin, link.base_counter, link.base_slot, 1, 64, 0);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                InvariantViolation::DeltaBaseNotCommitted { counter, base_counter }
                    if *counter == head.counter && *base_counter == link.base_counter
            )),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn torn_delta_frame_record_is_flagged() {
        let (dev, st) = flight_store(4, 64);
        let mut full = vec![11u8; 64];
        commit_one(&st, 1, &full);
        full[16..24].copy_from_slice(&[13u8; 8]);
        commit_delta_one(&st, 2, &full, &[(16, 8)]);
        // Corrupt the last packed byte (a record the delta materialized;
        // its table stays intact, so only resolution catches it).
        let target = st.latest_committed().unwrap();
        let off = st.slot_payload_offset(target.slot) + target.payload_len - 1;
        dev.write_at(off, &[0xEE]).unwrap();
        dev.persist(off, 1).unwrap();
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::TornCommittedSlot { counter: 2, .. })));
    }

    #[test]
    fn clean_run_audits_clean() {
        let (dev, st) = flight_store(3, 64);
        for i in 1..=4 {
            commit_one(&st, i, format!("p{i}").as_bytes());
        }
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.expected_recovery.unwrap().iteration, 4);
        assert!(report.in_flight().is_empty());
        assert_eq!(report.checkpoints.len(), 4);
        assert!(matches!(
            report.checkpoints[&4],
            CheckpointVerdict::Committed {
                payload_valid: true,
                ..
            }
        ));
        assert!(report.render().contains("CLEAN"));
    }

    #[test]
    fn in_flight_checkpoint_classified_by_phase() {
        let (dev, st) = flight_store(3, 64);
        commit_one(&st, 1, b"one");
        // Crash between persist and commit: payload + flight records up to
        // PayloadPersisted, no metadata barrier.
        let lease = st.begin_checkpoint(None).unwrap();
        st.write_payload(&lease, 0, b"two").unwrap();
        st.persist_payload(&lease, 0, 3).unwrap();
        st.flight()
            .record(K::CopyDone, lease.counter, lease.slot, 0, 3, 0);
        st.flight()
            .record(K::PayloadPersisted, lease.counter, lease.slot, 2, 3, 0);
        let counter = lease.counter;
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.in_flight(), vec![counter]);
        assert_eq!(
            report.checkpoints[&counter],
            CheckpointVerdict::InFlight {
                phase: InFlightPhase::Persisted,
                slot: 1,
            }
        );
        // Recovery still lands on checkpoint 1.
        assert_eq!(report.expected_recovery.unwrap().iteration, 1);
    }

    #[test]
    fn fabricated_commit_without_barrier_is_flagged() {
        let (dev, st) = flight_store(3, 64);
        commit_one(&st, 1, b"one");
        // Fabricate a protocol bug: a Commit record for a checkpoint that
        // never took the metadata barrier.
        let lease = st.begin_checkpoint(None).unwrap();
        st.flight()
            .record(K::Commit, lease.counter, lease.slot, 9, 3, 0);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::CommitWithoutPersist { .. })));
        // And the durable CHECK_ADDR never advanced to it:
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::RecoveredNotNewest { .. })));
        assert!(!report.is_clean());
    }

    #[test]
    fn torn_recovery_target_is_flagged() {
        let (dev, st) = flight_store(3, 64);
        commit_one(&st, 1, b"one");
        // Corrupt the committed payload behind the store's back.
        let meta = st.latest_committed().unwrap();
        let off = st.slot_payload_offset(meta.slot);
        dev.write_at(off, b"WRONG").unwrap();
        dev.persist(off, 5).unwrap();
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::TornCommittedSlot { counter: 1, .. })));
    }

    #[test]
    fn ringless_store_still_audits_metadata() {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3, 0).unwrap();
        commit_one(&st, 1, b"one");
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.ring_records, 0);
        assert_eq!(report.checkpoints.len(), 1);
        assert!(matches!(
            report.checkpoints[&1],
            CheckpointVerdict::Committed {
                payload_valid: true,
                ..
            }
        ));
    }

    #[test]
    fn non_monotone_commits_flagged() {
        let (dev, st) = flight_store(4, 64);
        commit_one(&st, 1, b"a");
        commit_one(&st, 2, b"b");
        // Fabricate an out-of-order Commit record for a checkpoint whose
        // window already closed: the fetch_max watermark records exactly
        // one Commit per counter, so a second record for counter 1 cannot
        // be a benign race — its window is gone from `active`.
        st.flight().record(K::MetaPersisted, 1, 0, 1, 1, 0);
        st.flight().record(K::Commit, 1, 0, 1, 1, 0);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::CommitNotMonotone { prev: 2, next: 1 }
        )));
    }

    #[test]
    fn racing_winner_commit_inversion_is_tolerated() {
        // Two checkpointers win the watermark in counter order but log
        // their Commit records inverted (the lock-free publish path allows
        // this: each thread records its own fetch_max advance). Both
        // windows are open when the stale record lands, so the auditor
        // must not flag a false CommitNotMonotone.
        let (dev, st) = flight_store(4, 64);
        let lease_a = st.begin_checkpoint(None).unwrap();
        let lease_b = st.begin_checkpoint(None).unwrap();
        for (lease, payload) in [(&lease_a, b"aa"), (&lease_b, b"bb")] {
            let written = st.write_whole_frame(lease, payload).unwrap();
            st.persist_payload(lease, 0, written).unwrap();
        }
        let (ca, sa) = (lease_a.counter, lease_a.slot);
        let (cb, sb) = (lease_b.counter, lease_b.slot);
        // Replay what the device would hold: both metas persisted, then
        // the Commit records land newer-first.
        for (lease, iter) in [(lease_a, 1u64), (lease_b, 2u64)] {
            let meta = pccheck::CheckMeta {
                counter: lease.counter,
                slot: lease.slot,
                iteration: iter,
                payload_len: 2,
                digest: fnv1a(if iter == 1 { b"aa" } else { b"bb" }),
                delta: None,
            };
            let off = st.slot_meta_offset(lease.slot);
            dev.write_at(off, &meta.encode()).unwrap();
            dev.persist(off, pccheck::meta::META_RECORD_SIZE).unwrap();
            std::mem::forget(lease);
        }
        // (No durable CHECK_ADDR write needed: the max-counter slot scan
        // already resolves recovery to the newer winner.)
        st.flight().record(K::MetaPersisted, ca, sa, 1, 2, 0);
        st.flight().record(K::MetaPersisted, cb, sb, 2, 2, 0);
        st.flight().record(K::Commit, cb, sb, 2, 2, 0);
        st.flight().record(K::Commit, ca, sa, 1, 2, 0);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(
            !report
                .violations
                .iter()
                .any(|v| matches!(v, InvariantViolation::CommitNotMonotone { .. })),
            "benign inversion flagged: {:?}",
            report.violations
        );
        assert!(matches!(
            report.checkpoints[&cb],
            CheckpointVerdict::Committed { .. }
        ));
    }

    #[test]
    fn torn_state_word_is_a_lattice_violation() {
        let (dev, st) = flight_store(3, 64);
        commit_one(&st, 1, b"one");
        let head = st.latest_committed().unwrap();
        // Forge the unreachable lattice point: a Committed state word over
        // a meta record carrying a different counter.
        let forged = pccheck::SlotState::Committed {
            counter: head.counter + 10,
        };
        let off = st.slot_state_offset(head.slot);
        dev.write_at(off, &forged.encode()).unwrap();
        dev.persist(off, pccheck::SLOT_STATE_SIZE).unwrap();
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(!report.is_clean());
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::StateLatticeViolation {
                state_counter,
                meta_counter: Some(mc),
                ..
            } if *state_counter == head.counter + 10 && *mc == head.counter
        )));
        assert!(report.render().contains("state word"));
    }

    #[test]
    fn claimed_slot_on_ringless_store_is_synthesized_in_flight() {
        // No flight ring: the state word alone must make the in-flight
        // claim decidable (the detectable half of the protocol).
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3, 0).unwrap();
        commit_one(&st, 1, b"one");
        let lease = st.begin_checkpoint(None).unwrap();
        let (counter, slot) = (lease.counter, lease.slot);
        std::mem::forget(lease);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.in_flight(), vec![counter]);
        assert_eq!(
            report.checkpoints[&counter],
            CheckpointVerdict::InFlight {
                phase: InFlightPhase::Begun,
                slot,
            }
        );
        assert_eq!(
            report.slot_outcomes[slot as usize],
            SlotOutcome::InFlight { counter }
        );
        assert!(report.render().contains("slot lattice"));
    }

    fn service_flight_store(
        slots: u32,
        ring: u32,
        max_ns: u32,
    ) -> (Arc<dyn PersistentDevice>, CheckpointStore) {
        let cap = CheckpointStore::required_capacity_service(
            ByteSize::from_bytes(64),
            slots,
            ring,
            max_ns,
        ) + ByteSize::from_kb(1);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format_service(
            Arc::clone(&dev),
            ByteSize::from_bytes(64),
            slots,
            ring,
            max_ns,
        )
        .unwrap();
        (dev, st)
    }

    fn commit_job(st: &CheckpointStore, job: u64, iter: u64, payload: &[u8]) {
        let lease = st.begin_checkpoint(Some(job)).unwrap();
        let written = st.write_whole_frame(&lease, payload).unwrap();
        st.persist_payload(&lease, 0, written).unwrap();
        let digest = fnv1a(payload);
        assert_eq!(
            st.commit(lease, iter, payload.len() as u64, digest)
                .unwrap(),
            CommitOutcome::Committed
        );
    }

    #[test]
    fn interleaved_tenant_commits_audit_clean() {
        // Jobs lease counters from one global sequence but commit out of
        // global order; under the single-tenant monotonicity rule this
        // interleaving would be a false CommitNotMonotone. The namespace-
        // partitioned auditor must accept it.
        let (dev, st) = service_flight_store(6, 64, 4);
        st.allocate_namespace(1, 3).unwrap();
        st.allocate_namespace(2, 3).unwrap();
        // Lease job 1 first (lower counter), commit it after job 2.
        let lease1 = st.begin_checkpoint(Some(1)).unwrap();
        commit_job(&st, 2, 7, b"job2-a");
        let written = st.write_whole_frame(&lease1, b"job1-a").unwrap();
        st.persist_payload(&lease1, 0, written).unwrap();
        st.commit(lease1, 3, 6, fnv1a(b"job1-a")).unwrap();
        commit_job(&st, 2, 8, b"job2-b");
        commit_job(&st, 1, 4, b"job1-b");
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.concurrency_limit, 4, "two namespaces of N+1 = 3");
        let heads: BTreeMap<u64, u64> = report
            .namespace_recovery
            .iter()
            .filter_map(|(job, m)| m.map(|m| (*job, m.iteration)))
            .collect();
        assert_eq!(heads[&1], 4);
        assert_eq!(heads[&2], 8);
        assert!(report.render().contains("job 1"));
    }

    #[test]
    fn torn_tenant_head_is_flagged_even_when_not_globally_newest() {
        let (dev, st) = service_flight_store(6, 64, 4);
        st.allocate_namespace(1, 3).unwrap();
        st.allocate_namespace(2, 3).unwrap();
        commit_job(&st, 1, 1, b"job1-a");
        commit_job(&st, 2, 9, b"job2-a"); // globally newest commit
                                          // Tear job 1's head payload: the global expected recovery is job
                                          // 2's intact head, but job 1's tenant-visible recovery is torn.
        let head = st.latest_committed_job(1).unwrap().unwrap();
        let off = st.slot_payload_offset(head.slot);
        dev.write_at(off, b"WRONG").unwrap();
        dev.persist(off, 5).unwrap();
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.violations.iter().any(
            |v| matches!(v, InvariantViolation::TornCommittedSlot { counter, .. } if *counter == head.counter)
        ), "{:?}", report.violations);
    }

    #[test]
    fn tenant_check_addr_behind_ring_commit_is_flagged() {
        let (dev, st) = service_flight_store(6, 64, 4);
        st.allocate_namespace(1, 3).unwrap();
        commit_job(&st, 1, 1, b"one");
        // Fabricate a ring Commit for a counter job 1's durable pointer
        // never reached: per-namespace invariant 4 must trip.
        let lease = st.begin_checkpoint(Some(1)).unwrap();
        st.flight()
            .record(K::MetaPersisted, lease.counter, lease.slot, 2, 3, 0);
        st.flight()
            .record(K::Commit, lease.counter, lease.slot, 2, 3, 0);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::RecoveredNotNewest { .. })));
    }

    /// Runs `iters` checkpoints of a compressible 4 KiB state through a
    /// codec-on engine (with a flight ring) and returns its device.
    fn codec_engine_store(seed: u64, iters: u64) -> Arc<dyn PersistentDevice> {
        use pccheck::{PcCheckConfig, PcCheckEngine};
        use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::compressible(ByteSize::from_kb(4), seed, 32),
        );
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(ByteSize::from_mb_u64(1)),
        ));
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(256))
            .dram_chunks(16)
            .flight_records(128)
            .codec(true)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(config, Arc::clone(&dev), gpu.state_size()).unwrap();
        for iter in 1..=iters {
            gpu.update();
            engine.checkpoint(&gpu, iter);
            engine.drain();
        }
        dev
    }

    #[test]
    fn framed_codec_store_audits_clean() {
        let dev = codec_engine_store(7, 6);
        // The audit only proves something if the codec actually chose
        // record kinds.
        let view = RawStoreView::load(dev.as_ref()).unwrap();
        let coded = view
            .slot_meta
            .iter()
            .flatten()
            .filter_map(|m| view.read_frame(dev.as_ref(), m))
            .filter(|t| !t.is_raw())
            .count();
        assert!(coded > 0, "no frame the codec touched");
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn torn_framed_recovery_head_is_flagged() {
        let dev = codec_engine_store(11, 4);
        let view = RawStoreView::load(dev.as_ref()).unwrap();
        let head = view
            .slot_meta
            .iter()
            .flatten()
            .max_by_key(|m| m.counter)
            .copied()
            .unwrap();
        let table = view.read_frame(dev.as_ref(), &head).unwrap();
        // Corrupt one byte of a stored record (the table stays intact):
        // its content address no longer verifies.
        let record = table
            .records
            .iter()
            .find(|r| r.kind.is_materialized())
            .expect("the newest frame stores a record");
        let slot_off = view.slot_payload_offset(head.slot) + record.a;
        let mut byte = [0u8; 1];
        dev.read_durable_at(slot_off, &mut byte).unwrap();
        byte[0] ^= 0xFF;
        dev.write_at(slot_off, &byte).unwrap();
        dev.persist(slot_off, 1).unwrap();
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                InvariantViolation::TornCommittedSlot { counter, .. } if *counter == head.counter
            )),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn audit_rejects_unformatted_device() {
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(ByteSize::from_kb(4)),
        ));
        assert!(audit(dev).is_err());
    }

    #[test]
    fn striped_store_audits_clean_through_the_durable_view() {
        use pccheck_device::StripedDevice;
        // A small stripe forces the header, CHECK_ADDR, slot metadata, and
        // flight ring to interleave across both members, so RawStoreView's
        // durable reads must reassemble every structure from extents.
        let cap = CheckpointStore::required_capacity_service(ByteSize::from_bytes(64), 3, 64, 1);
        let members: Vec<Arc<dyn PersistentDevice>> = (0..2)
            .map(|_| {
                Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)))
                    as Arc<dyn PersistentDevice>
            })
            .collect();
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(StripedDevice::new(members, ByteSize::from_bytes(256)));
        let st =
            CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3, 64).unwrap();
        for i in 1..=3 {
            commit_one(&st, i, format!("s{i}").as_bytes());
        }
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.expected_recovery.unwrap().iteration, 3);
        assert_eq!(report.checkpoints.len(), 3);
        assert!(matches!(
            report.checkpoints[&3],
            CheckpointVerdict::Committed {
                payload_valid: true,
                ..
            }
        ));
    }
}
