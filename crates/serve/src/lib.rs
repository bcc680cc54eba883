//! Rottnest query serving layer: staying correct — and fast to say no —
//! under overload.
//!
//! [`QueryService`] wraps a [`rottnest::Rottnest`] client with the
//! pipeline a multi-tenant search endpoint needs:
//!
//! 1. **Tenant budgets** — per-tenant admitted-queries-per-second via the
//!    object-store layer's `PrefixThrottle` cost model (rejecting mode).
//! 2. **Admission control** ([`Admission`]) — a counting semaphore with
//!    bounded per-class wait queues scheduled by weighted fair queueing
//!    over virtual time ([`QueryClass`]: interactive vs batch); arrivals
//!    past the bound shed immediately with a typed
//!    [`rottnest::RottnestError::Overloaded`], and under contention each
//!    class keeps at least its weight share of admissions.
//! 3. **Deadline-aware shedding** — a query whose deadline cannot be met
//!    even if admitted is refused before it costs a single store request.
//! 4. **Single-flight dedup** — identical in-flight queries (same
//!    snapshot version, column, and query fingerprint) share one search;
//!    a thousand concurrent hot-UUID lookups cost one set of GETs.
//! 5. **Deadline propagation** — the absolute deadline rides into
//!    [`rottnest::Rottnest::search_with_deadline`], which polls it
//!    cooperatively between index probes and brute-scanned files and
//!    aborts with a typed `DeadlineExceeded` that never poisons caches.
//!
//! Admitted queries return results bit-identical to a direct
//! `Rottnest::search` call; everything the service refuses or aborts
//! fails fast with a typed error carrying a retry hint.

pub mod admission;
pub mod service;

pub use admission::{Admission, AdmissionConfig, Permit, QueryClass, ShedReason};
pub use service::{QueryService, ServeMode, ServiceConfig, ServiceStats};
