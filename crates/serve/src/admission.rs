//! Admission control with weighted fair queueing over virtual time,
//! bounded per-class queues, and deadline-aware shedding.
//!
//! The serving layer's first line of defense: at most `max_concurrent`
//! searches run at once, at most `max_queued` *per class* wait behind
//! them, and a query whose deadline cannot be met *even if admitted* is
//! refused immediately — before it costs a single store request — with a
//! typed [`ShedReason`] the client can act on. Everything past those
//! bounds fails fast instead of piling onto a collapsing server.
//!
//! Queued work is scheduled per **flow** under weighted fair queueing: a
//! flow is a scheduling class ([`QueryClass::Interactive`] vs
//! [`QueryClass::Batch`]), optionally refined by tenant for tenants that
//! carry an explicit weight in [`AdmissionConfig::tenant_weights`]. Every
//! arrival is stamped with a virtual finish tag (`virtual_finish_tag`)
//! on its flow's tag chain — advancing by `WFQ_SCALE / (class_weight ×
//! tenant_weight)` per dispatch — and freed slots go to the queued waiter
//! with the smallest tag (ties to earliest arrival). A flow with weight
//! `w` gets `w / Σw` of contended slots, so a sustained interactive flood
//! cannot starve batch below its weight share, a heavy tenant cannot
//! starve a light one below its, and a deep batch backlog cannot delay an
//! interactive burst by more than one batch inter-service gap. Within a
//! flow, tags are monotone, so dispatch stays FIFO per flow and fresh
//! arrivals can never barge past queued waiters. Tenants *without* a
//! configured weight share their class's default flow, which preserves
//! plain two-class WFQ exactly when `tenant_weights` is empty.
//!
//! The finish-time estimate that drives deadline shedding
//! (`estimate_finish_ms`) and the tag arithmetic are pure functions of
//! the queue state at arrival, so their unit tests pin the policy exactly.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Condvar, Mutex};
use rottnest::RottnestError;

/// Scheduling class of a query. Interactive queries carry tight deadlines
/// and a high weight; batch queries soak spare capacity at a low weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueryClass {
    /// Latency-sensitive traffic (the default).
    #[default]
    Interactive,
    /// Throughput traffic that tolerates queueing.
    Batch,
}

impl QueryClass {
    /// Index into per-class arrays.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            QueryClass::Interactive => 0,
            QueryClass::Batch => 1,
        }
    }
}

/// Fixed-point scale for virtual-time arithmetic: one dispatched query at
/// weight `w` advances its class tag by `WFQ_SCALE / w`.
const WFQ_SCALE: u64 = 1 << 16;

/// Virtual finish tag for a flow's next arrival: the later of global
/// virtual time and the flow's last tag, plus one weighted service
/// quantum.
fn virtual_finish_tag(virtual_time: u64, class_last_tag: u64, weight: u32) -> u64 {
    virtual_time.max(class_last_tag) + WFQ_SCALE / u64::from(weight.max(1))
}

/// Knobs for the admission controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Searches allowed to run concurrently. With every fan-out on the
    /// shared worker pool this is a pure admission bound, not a thread
    /// count — it can sit far above the pool size (an admitted query whose
    /// fan-out finds no free worker runs its units itself).
    pub max_concurrent: usize,
    /// Searches allowed to wait for a slot, per class; arrivals beyond
    /// this shed with [`ShedReason::QueueFull`]. Bounding per class keeps
    /// an interactive flood from consuming batch's queue space (and vice
    /// versa).
    pub max_queued: usize,
    /// Seed for the per-query service-time estimate (store-clock ms),
    /// used for deadline shedding until real completions refine it.
    pub expected_service_ms: u64,
    /// Weighted-fair-queueing weight for interactive queries.
    pub interactive_weight: u32,
    /// Weighted-fair-queueing weight for batch queries.
    pub batch_weight: u32,
    /// Per-tenant WFQ weights: a tenant listed here is scheduled as its
    /// own flow per class, with effective weight `class_weight ×
    /// tenant_weight`. Tenants not listed share their class's default
    /// flow (weight `class_weight × 1`) — an empty list is exactly
    /// two-class WFQ.
    pub tenant_weights: Vec<(String, u32)>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_concurrent: rottnest_object_store::default_parallelism(),
            max_queued: 64,
            expected_service_ms: 50,
            interactive_weight: 4,
            batch_weight: 1,
            tenant_weights: Vec::new(),
        }
    }
}

impl AdmissionConfig {
    /// The WFQ weight for `class`.
    pub fn weight(&self, class: QueryClass) -> u32 {
        match class {
            QueryClass::Interactive => self.interactive_weight,
            QueryClass::Batch => self.batch_weight,
        }
    }

    /// The configured weight for `tenant`, if it has one. Tenants without
    /// an explicit weight return `None` and ride their class's default
    /// flow.
    pub fn tenant_weight(&self, tenant: &str) -> Option<u32> {
        self.tenant_weights
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|&(_, w)| w.max(1))
    }
}

/// Why a query was refused at admission. Every variant is raised *before*
/// the query issues any store traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShedReason {
    /// The class's wait queue is at capacity.
    QueueFull {
        /// Client hint: one estimated service time from now.
        retry_after_ms: u64,
    },
    /// Even if queued, the estimated finish time is past the deadline —
    /// running the query would only waste work it cannot complete in time.
    DeadlineUnmeetable {
        /// Estimated store-clock finish time were the query admitted.
        estimated_finish_ms: u64,
        /// The query's absolute deadline.
        deadline_ms: u64,
    },
    /// The tenant exhausted its admitted-queries-per-second budget.
    TenantBudget {
        /// Client hint: when the budget window rolls over.
        retry_after_ms: u64,
    },
    /// The service is in brownout (the index domain's circuit breaker is
    /// open) and batch-class work is shed first so the degraded capacity
    /// serves interactive queries.
    Brownout {
        /// Client hint: the breaker cooldown — earliest the service could
        /// be probing its way back to normal.
        retry_after_ms: u64,
    },
}

impl ShedReason {
    /// Converts into the protocol-level typed error.
    pub fn into_error(self) -> RottnestError {
        match self {
            ShedReason::QueueFull { retry_after_ms } => RottnestError::Overloaded {
                reason: "admission queue full".to_string(),
                retry_after_ms,
            },
            ShedReason::DeadlineUnmeetable {
                estimated_finish_ms,
                deadline_ms,
            } => RottnestError::Overloaded {
                reason: format!(
                    "deadline unmeetable: estimated finish {estimated_finish_ms}ms past \
                     deadline {deadline_ms}ms"
                ),
                retry_after_ms: estimated_finish_ms.saturating_sub(deadline_ms).max(1),
            },
            ShedReason::Brownout { retry_after_ms } => RottnestError::Overloaded {
                reason: "brownout: index domain breaker open, batch shed first".to_string(),
                retry_after_ms,
            },
            ShedReason::TenantBudget { retry_after_ms } => RottnestError::Overloaded {
                reason: "tenant budget exhausted".to_string(),
                retry_after_ms,
            },
        }
    }
}

/// Estimated store-clock time at which a query arriving now would finish,
/// given `running` active searches, `queued` waiting ahead of it,
/// `max_concurrent` slots, and a per-query service-time estimate.
///
/// The model is wave-based: the arrivals ahead drain in batches of
/// `max_concurrent`, each batch costing one service time, and the query
/// itself costs one more. Under WFQ "queued ahead" means waiters whose
/// virtual finish tag is at most the arrival's own — the set the
/// scheduler would actually serve first.
fn estimate_finish_ms(
    now_ms: u64,
    running: usize,
    queued: usize,
    max_concurrent: usize,
    service_ms: u64,
) -> u64 {
    let ahead = running + queued;
    let waves = ahead / max_concurrent.max(1);
    now_ms + (waves as u64 + 1) * service_ms.max(1)
}

#[derive(Debug)]
struct Waiter {
    ticket: u64,
    vft: u64,
}

/// One WFQ flow: a class, optionally refined by an explicitly weighted
/// tenant. All waiters in a flow share one weight, so tags are monotone
/// within its queue and the front is the flow's minimum.
#[derive(Debug)]
struct Flow {
    class: usize,
    /// `Some` only for tenants with a configured weight; everyone else
    /// shares their class's `None` flow.
    tenant: Option<String>,
    /// Last tag issued in this flow.
    last_tag: u64,
    queue: VecDeque<Waiter>,
}

#[derive(Debug, Default)]
struct State {
    running: usize,
    /// Per-flow wait queues, created lazily on first arrival and never
    /// removed (so indices stay stable while a waiter is parked).
    flows: Vec<Flow>,
    next_ticket: u64,
    /// Ticket holding an unclaimed slot grant; only its holder may leave
    /// the wait loop, so wakeups hand slots to the WFQ winner.
    granted: Option<u64>,
    /// Global virtual time: the largest tag ever dispatched.
    virtual_time: u64,
}

impl State {
    fn total_queued(&self) -> usize {
        self.flows.iter().map(|f| f.queue.len()).sum()
    }

    fn queued_in_class(&self, class: usize) -> usize {
        self.flows
            .iter()
            .filter(|f| f.class == class)
            .map(|f| f.queue.len())
            .sum()
    }

    /// Index of the flow for (`class`, `tenant`), creating it on first
    /// use.
    fn flow_idx(&mut self, class: usize, tenant: Option<&str>) -> usize {
        if let Some(i) = self
            .flows
            .iter()
            .position(|f| f.class == class && f.tenant.as_deref() == tenant)
        {
            return i;
        }
        self.flows.push(Flow {
            class,
            tenant: tenant.map(str::to_owned),
            last_tag: 0,
            queue: VecDeque::new(),
        });
        self.flows.len() - 1
    }

    /// Grants the freed slot to the waiter with the smallest virtual
    /// finish tag (ties go to interactive, then to earliest arrival).
    /// No-op while a grant is outstanding — the grantee re-dispatches
    /// when it claims its slot.
    fn dispatch(&mut self) {
        if self.granted.is_some() {
            return;
        }
        let best = self
            .flows
            .iter()
            .filter_map(|f| f.queue.front().map(|w| (w.vft, f.class, w.ticket)))
            .min();
        if let Some((vft, _, ticket)) = best {
            self.virtual_time = self.virtual_time.max(vft);
            self.granted = Some(ticket);
        }
    }
}

/// The admission controller: a counting semaphore with bounded per-class
/// wait queues, weighted-fair dispatch, and deadline-aware shedding at
/// the gate.
pub struct Admission {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    cv: Condvar,
    /// Smoothed observed service time (ms), seeded by
    /// [`AdmissionConfig::expected_service_ms`].
    service_ms: AtomicU64,
}

impl std::fmt::Debug for Admission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (running, queued) = self.occupancy();
        f.debug_struct("Admission")
            .field("cfg", &self.cfg)
            .field("running", &running)
            .field("queued", &queued)
            .field("service_ms", &self.service_ms())
            .finish()
    }
}

impl Admission {
    /// Creates a controller with the given bounds.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            service_ms: AtomicU64::new(cfg.expected_service_ms.max(1)),
            cfg,
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
        }
    }

    /// The bounds in effect.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Current smoothed service-time estimate (store-clock ms).
    pub fn service_ms(&self) -> u64 {
        self.service_ms.load(Ordering::Relaxed)
    }

    /// Folds an observed query duration into the service-time estimate
    /// (EWMA with 1/4 weight on the new sample).
    pub fn observe_service_ms(&self, observed_ms: u64) {
        let old = self.service_ms.load(Ordering::Relaxed);
        let new = (old * 3 + observed_ms.max(1)) / 4;
        self.service_ms.store(new.max(1), Ordering::Relaxed);
    }

    /// Admits an interactive query or sheds it; see [`Self::admit_class`].
    pub fn admit(&self, now_ms: u64, deadline_ms: Option<u64>) -> Result<Permit<'_>, ShedReason> {
        self.admit_class(now_ms, deadline_ms, QueryClass::Interactive)
    }

    /// Admits a query in `class` with no tenant refinement; see
    /// [`Self::admit_flow`].
    pub fn admit_class(
        &self,
        now_ms: u64,
        deadline_ms: Option<u64>,
        class: QueryClass,
    ) -> Result<Permit<'_>, ShedReason> {
        self.admit_flow(now_ms, deadline_ms, class, None)
    }

    /// Admits a query in `class` on behalf of `tenant`, or sheds it. On
    /// success the returned [`Permit`] holds one concurrency slot until
    /// dropped; callers run the search under it. Shedding never blocks:
    /// `QueueFull` and `DeadlineUnmeetable` are decided from the state at
    /// arrival.
    ///
    /// A tenant with a configured weight ([`AdmissionConfig::
    /// tenant_weights`]) is scheduled as its own flow at `class_weight ×
    /// tenant_weight`; any other tenant (or `None`) rides the class's
    /// default flow, so the call is exactly [`Self::admit_class`] when no
    /// tenant weights are configured.
    ///
    /// A queued query waits (blocking) for a slot; its deadline was
    /// checked as meetable at arrival, and the search itself re-checks
    /// cooperatively once running, so a late wake degrades into a typed
    /// [`RottnestError::DeadlineExceeded`] rather than silent extra load.
    ///
    /// Freed slots go to the queued waiter with the smallest virtual
    /// finish tag. A fresh arrival admits directly only when nobody is
    /// queued, so under sustained arrivals a waiter cannot be barged past
    /// indefinitely — the finish estimate its admission was based on
    /// stays honest, and each flow keeps at least its weight share of
    /// contended slots.
    pub fn admit_flow(
        &self,
        now_ms: u64,
        deadline_ms: Option<u64>,
        class: QueryClass,
        tenant: Option<&str>,
    ) -> Result<Permit<'_>, ShedReason> {
        let c = class.idx();
        let tenant_w = tenant.and_then(|t| self.cfg.tenant_weight(t));
        let weight = match tenant_w {
            Some(tw) => self.cfg.weight(class).saturating_mul(tw),
            None => self.cfg.weight(class),
        };
        // Only explicitly weighted tenants get their own flow.
        let flow_key = if tenant_w.is_some() { tenant } else { None };
        let mut st = self.state.lock();
        if st.running >= self.cfg.max_concurrent || st.total_queued() > 0 {
            if st.queued_in_class(c) >= self.cfg.max_queued {
                return Err(ShedReason::QueueFull {
                    retry_after_ms: self.service_ms(),
                });
            }
            let fi = st.flow_idx(c, flow_key);
            let vft = virtual_finish_tag(st.virtual_time, st.flows[fi].last_tag, weight);
            if let Some(deadline_ms) = deadline_ms {
                // Ahead of me: waiters the scheduler would serve first —
                // those with tags at most mine (FIFO within my flow,
                // weight-share across flows).
                let ahead = st
                    .flows
                    .iter()
                    .flat_map(|f| f.queue.iter())
                    .filter(|w| w.vft <= vft)
                    .count();
                let estimated_finish_ms = estimate_finish_ms(
                    now_ms,
                    st.running,
                    ahead,
                    self.cfg.max_concurrent,
                    self.service_ms(),
                );
                if estimated_finish_ms > deadline_ms {
                    return Err(ShedReason::DeadlineUnmeetable {
                        estimated_finish_ms,
                        deadline_ms,
                    });
                }
            }
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.flows[fi].last_tag = vft;
            st.flows[fi].queue.push_back(Waiter { ticket, vft });
            if st.running < self.cfg.max_concurrent {
                st.dispatch();
                if st.granted.is_some() && st.granted != Some(ticket) {
                    self.cv.notify_all();
                }
            }
            while st.granted != Some(ticket) {
                self.cv.wait(&mut st);
            }
            // Claim the grant: leave the queue, take the slot. Tags are
            // monotone within a flow, so a granted waiter is its flow's
            // front.
            st.granted = None;
            let front = st.flows[fi]
                .queue
                .pop_front()
                .expect("granted waiter is queued");
            debug_assert_eq!(front.ticket, ticket);
            st.running += 1;
            // Several permits may have dropped at once: if a slot is
            // still free, grant it to the next WFQ winner.
            if st.running < self.cfg.max_concurrent {
                st.dispatch();
                if st.granted.is_some() {
                    self.cv.notify_all();
                }
            }
        } else {
            st.running += 1;
        }
        Ok(Permit { admission: self })
    }

    /// `(running, queued)` occupancy across classes (tests and
    /// introspection).
    pub fn occupancy(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.running, st.total_queued())
    }

    /// Queue depth for one class (summed across its tenant flows).
    pub fn queued_in_class(&self, class: QueryClass) -> usize {
        self.state.lock().queued_in_class(class.idx())
    }
}

/// One admitted query's concurrency slot; releasing it (drop) grants the
/// slot to the WFQ winner among queued queries. RAII, so a panicking
/// search still frees its slot.
#[derive(Debug)]
pub struct Permit<'a> {
    admission: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.admission.state.lock();
        st.running = st.running.saturating_sub(1);
        if st.running < self.admission.cfg.max_concurrent {
            st.dispatch();
        }
        drop(st);
        // Wake every waiter: only the granted ticket may take the slot,
        // and notify_one could land on a non-granted waiter that just
        // re-waits, losing the wakeup.
        self.admission.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_concurrent: usize, max_queued: usize) -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent,
            max_queued,
            expected_service_ms: 10,
            ..AdmissionConfig::default()
        }
    }

    #[test]
    fn admits_up_to_concurrency_then_queues_then_sheds() {
        let adm = Admission::new(cfg(2, 1));
        let p1 = adm.admit(0, None).unwrap();
        let p2 = adm.admit(0, None).unwrap();
        assert_eq!(adm.occupancy(), (2, 0));
        // Third would queue (blocking), fourth would shed; prove the shed
        // bound without blocking by filling the queue from another thread.
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                // Occupies the single queue slot until permits free up.
                let _p3 = adm.admit(0, None).unwrap();
            });
            while adm.occupancy().1 < 1 {
                std::thread::yield_now();
            }
            match adm.admit(0, None) {
                Err(ShedReason::QueueFull { .. }) => {}
                other => panic!("expected QueueFull, got {other:?}"),
            }
            drop(p1);
            drop(p2);
            h.join().unwrap();
        });
    }

    #[test]
    fn deadline_unmeetable_sheds_before_queueing() {
        let adm = Admission::new(cfg(1, 8));
        let _p = adm.admit(0, None).unwrap();
        // One query running, estimate 10ms service: a queued arrival
        // would finish around t=20 — a deadline of 5 can't be met.
        match adm.admit(0, Some(5)) {
            Err(ShedReason::DeadlineUnmeetable {
                estimated_finish_ms,
                deadline_ms,
            }) => {
                assert!(estimated_finish_ms > deadline_ms);
            }
            other => panic!("expected DeadlineUnmeetable, got {other:?}"),
        }
        // A generous deadline queues instead — prove it doesn't shed by
        // freeing the permit from another thread.
        std::thread::scope(|s| {
            let h = s.spawn(|| adm.admit(0, Some(1_000)).map(|_| ()));
            while adm.occupancy().1 < 1 {
                std::thread::yield_now();
            }
            drop(_p);
            h.join().unwrap().unwrap();
        });
    }

    #[test]
    fn permit_drop_frees_slot() {
        let adm = Admission::new(cfg(1, 0));
        let p = adm.admit(0, None).unwrap();
        assert!(matches!(
            adm.admit(0, None),
            Err(ShedReason::QueueFull { .. })
        ));
        drop(p);
        let _p2 = adm.admit(0, None).unwrap();
    }

    #[test]
    fn freed_slots_go_to_queued_waiters_before_fresh_arrivals() {
        // Regression: a fresh arrival that lands between a permit drop
        // and the queued waiter's wake must not barge past the waiter.
        // The race is real, so hammer it: any iteration where the fresh
        // arrival (B) admits before the waiter (A) is a failure.
        for _ in 0..200 {
            let adm = Admission::new(cfg(2, 4));
            let p1 = adm.admit(0, None).unwrap();
            let _p2 = adm.admit(0, None).unwrap();
            let order = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                let a = s.spawn(|| {
                    let p = adm.admit(0, None).unwrap();
                    order.lock().push('A');
                    drop(p);
                });
                while adm.occupancy().1 < 1 {
                    std::thread::yield_now();
                }
                // A is queued. Free a slot and immediately race B in.
                drop(p1);
                let b = s.spawn(|| {
                    let p = adm.admit(0, None).unwrap();
                    order.lock().push('B');
                    drop(p);
                });
                a.join().unwrap();
                b.join().unwrap();
            });
            assert_eq!(*order.lock(), vec!['A', 'B'], "fresh arrival barged");
        }
    }

    /// Queues `n` waiters of `class` and returns once all are parked.
    /// Each waiter logs its class on dispatch and immediately releases
    /// its slot, so the log records pure WFQ dispatch order.
    fn park_waiters<'s, 'e>(
        s: &'s std::thread::Scope<'s, 'e>,
        adm: &'e Admission,
        class: QueryClass,
        n: usize,
        order: &'e Mutex<Vec<QueryClass>>,
    ) {
        let parked_before = adm.queued_in_class(class);
        for _ in 0..n {
            s.spawn(move || {
                let p = adm.admit_class(0, None, class).unwrap();
                order.lock().push(class);
                drop(p);
            });
        }
        while adm.queued_in_class(class) < parked_before + n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn wfq_gives_batch_its_weight_share_under_interactive_backlog() {
        // One slot, weights 4:1. Park 12 interactive and 3 batch waiters
        // behind a held permit, then release: dispatch order must follow
        // the virtual-time tags exactly — one batch query in every five
        // dispatches — regardless of thread timing, because tags were
        // assigned while everyone was parked.
        let adm = Admission::new(AdmissionConfig {
            max_concurrent: 1,
            max_queued: 16,
            expected_service_ms: 10,
            interactive_weight: 4,
            batch_weight: 1,
            tenant_weights: Vec::new(),
        });
        let gate = adm.admit(0, None).unwrap();
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            park_waiters(s, &adm, QueryClass::Interactive, 12, &order);
            park_waiters(s, &adm, QueryClass::Batch, 3, &order);
            drop(gate);
        });
        let order: Vec<QueryClass> = order.into_inner();
        assert_eq!(order.len(), 15);
        // Interactive tags: k/4 quanta; batch tags: whole quanta. Merged
        // ascending (ties to interactive): I I I I B I I I I B ...
        for (i, chunk) in order.chunks(5).enumerate() {
            let batch = chunk.iter().filter(|c| **c == QueryClass::Batch).count();
            assert_eq!(
                batch, 1,
                "dispatch wave {i} must carry exactly one batch query: {order:?}"
            );
        }
    }

    #[test]
    fn interactive_burst_is_not_starved_by_queued_batch_work() {
        // A deep batch backlog is parked first; a later interactive burst
        // must still be served ahead of most of it — its tags (quarter
        // quanta) sort below the batch backlog's (whole quanta).
        let adm = Admission::new(AdmissionConfig {
            max_concurrent: 1,
            max_queued: 16,
            expected_service_ms: 10,
            interactive_weight: 4,
            batch_weight: 1,
            tenant_weights: Vec::new(),
        });
        let gate = adm.admit(0, None).unwrap();
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            park_waiters(s, &adm, QueryClass::Batch, 10, &order);
            park_waiters(s, &adm, QueryClass::Interactive, 5, &order);
            drop(gate);
        });
        let order: Vec<QueryClass> = order.into_inner();
        assert_eq!(order.len(), 15);
        let last_interactive = order
            .iter()
            .rposition(|c| *c == QueryClass::Interactive)
            .unwrap();
        // Tags: interactive at 1/4..=5/4 quanta, batch at 1..=10. Merged:
        // four interactive, batch#1, the fifth interactive, then the
        // batch backlog — the whole burst done within six dispatches.
        assert!(
            last_interactive < 6,
            "burst starved behind batch backlog: {order:?}"
        );
        assert_eq!(order[0], QueryClass::Interactive);
    }

    #[test]
    fn deadline_estimate_counts_only_waiters_tagged_ahead() {
        // One slot busy, ten batch waiters parked (tags 1..=10 quanta),
        // 10 ms service. An eleventh batch arrival drains behind all of
        // them — 12 waves — so a 25 ms deadline sheds it. An interactive
        // arrival's quarter-quantum tag sorts ahead of the whole backlog:
        // only the running query is ahead, and the same deadline is met.
        let adm = Admission::new(cfg(1, 16));
        let gate = adm.admit(0, None).unwrap();
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            park_waiters(s, &adm, QueryClass::Batch, 10, &order);
            assert_eq!(
                adm.admit_class(0, Some(25), QueryClass::Batch).err(),
                Some(ShedReason::DeadlineUnmeetable {
                    estimated_finish_ms: 120,
                    deadline_ms: 25,
                })
            );
            let h = s.spawn(|| {
                adm.admit_class(0, Some(25), QueryClass::Interactive)
                    .map(drop)
            });
            while adm.queued_in_class(QueryClass::Interactive) < 1 && !h.is_finished() {
                std::thread::yield_now();
            }
            drop(gate);
            h.join().unwrap().expect("interactive arrival must queue");
        });
    }

    /// Queues `n` interactive waiters for `tenant` and returns once all
    /// are parked; each logs its tenant on dispatch.
    fn park_tenant_waiters<'s, 'e>(
        s: &'s std::thread::Scope<'s, 'e>,
        adm: &'e Admission,
        tenant: &'static str,
        n: usize,
        order: &'e Mutex<Vec<&'static str>>,
    ) {
        let parked_before = adm.occupancy().1;
        for _ in 0..n {
            s.spawn(move || {
                let p = adm
                    .admit_flow(0, None, QueryClass::Interactive, Some(tenant))
                    .unwrap();
                order.lock().push(tenant);
                drop(p);
            });
        }
        while adm.occupancy().1 < parked_before + n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn weighted_tenant_gets_its_share_without_starving_the_default_flow() {
        // One slot, interactive weight 4, tenant "heavy" weighted 3× and
        // "light" unweighted (class default flow). Heavy's tags advance by
        // 1/12 quantum per arrival, light's by 3/12 — so every window of
        // four dispatches carries exactly one light query: heavy gets 3×
        // the slots, light is never starved below its share.
        let adm = Admission::new(AdmissionConfig {
            max_concurrent: 1,
            max_queued: 16,
            expected_service_ms: 10,
            interactive_weight: 4,
            batch_weight: 1,
            tenant_weights: vec![("heavy".to_string(), 3)],
        });
        let gate = adm.admit(0, None).unwrap();
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            park_tenant_waiters(s, &adm, "heavy", 9, &order);
            park_tenant_waiters(s, &adm, "light", 3, &order);
            drop(gate);
        });
        let order: Vec<&str> = order.into_inner();
        assert_eq!(order.len(), 12);
        for (i, chunk) in order.chunks(4).enumerate() {
            let light = chunk.iter().filter(|t| **t == "light").count();
            assert_eq!(
                light, 1,
                "dispatch wave {i} must carry exactly one light-tenant query: {order:?}"
            );
        }
    }

    #[test]
    fn unweighted_tenants_share_the_class_flow_fifo() {
        // With no tenant weights configured, tenants ride the class flow:
        // one tag chain, strict FIFO — identical to tenant-blind WFQ.
        let adm = Admission::new(cfg(1, 8));
        let gate = adm.admit(0, None).unwrap();
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            park_tenant_waiters(s, &adm, "a", 2, &order);
            park_tenant_waiters(s, &adm, "b", 2, &order);
            drop(gate);
        });
        assert_eq!(*order.lock(), vec!["a", "a", "b", "b"]);
    }

    #[test]
    fn tenant_weight_lookup_ignores_unknown_tenants() {
        let cfg = AdmissionConfig {
            tenant_weights: vec![("alice".to_string(), 5), ("zero".to_string(), 0)],
            ..AdmissionConfig::default()
        };
        assert_eq!(cfg.tenant_weight("alice"), Some(5));
        assert_eq!(cfg.tenant_weight("bob"), None);
        // A configured weight of 0 clamps to 1 rather than dividing by 0.
        assert_eq!(cfg.tenant_weight("zero"), Some(1));
    }

    #[test]
    fn estimate_is_wave_based() {
        // Nothing ahead: one service time.
        assert_eq!(estimate_finish_ms(100, 0, 0, 4, 10), 110);
        // A full wave ahead: two service times.
        assert_eq!(estimate_finish_ms(100, 4, 0, 4, 10), 120);
        // Partial wave ahead still drains within the first wave.
        assert_eq!(estimate_finish_ms(100, 3, 0, 4, 10), 110);
        // 11 ahead: two full waves drain, then I run in the third.
        assert_eq!(estimate_finish_ms(100, 4, 7, 4, 10), 130);
        // 12 ahead: three full waves, then mine.
        assert_eq!(estimate_finish_ms(100, 4, 8, 4, 10), 140);
    }

    #[test]
    fn tags_advance_by_weighted_quanta() {
        // Heavier weight → smaller increments → more dispatches per
        // virtual-time unit.
        assert_eq!(virtual_finish_tag(0, 0, 1), WFQ_SCALE);
        assert_eq!(virtual_finish_tag(0, 0, 4), WFQ_SCALE / 4);
        // Tags never regress behind global virtual time: an idle class
        // re-enters at current virtual time, not at its stale last tag.
        assert_eq!(
            virtual_finish_tag(10 * WFQ_SCALE, WFQ_SCALE, 1),
            11 * WFQ_SCALE
        );
    }

    #[test]
    fn service_estimate_smooths_observations() {
        let adm = Admission::new(cfg(1, 1));
        assert_eq!(adm.service_ms(), 10);
        adm.observe_service_ms(50);
        assert_eq!(adm.service_ms(), 20);
        for _ in 0..16 {
            adm.observe_service_ms(50);
        }
        assert!(adm.service_ms() > 40, "estimate converges toward samples");
    }

    #[test]
    fn shed_reasons_map_to_overloaded() {
        let e = ShedReason::QueueFull { retry_after_ms: 7 }.into_error();
        assert!(matches!(
            e,
            RottnestError::Overloaded {
                retry_after_ms: 7,
                ..
            }
        ));
        let e = ShedReason::DeadlineUnmeetable {
            estimated_finish_ms: 30,
            deadline_ms: 20,
        }
        .into_error();
        assert!(matches!(
            e,
            RottnestError::Overloaded {
                retry_after_ms: 10,
                ..
            }
        ));
    }
}
