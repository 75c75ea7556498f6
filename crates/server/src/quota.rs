//! Per-tenant admission control.
//!
//! Two levers, both enforced before a job touches a run slot:
//!
//! * **in-flight cap** — at most N jobs of one tenant executing or queued
//!   at once, so a single chatty client cannot monopolise the bounded run
//!   pool;
//! * **per-job event ceiling** — a tenant-wide upper bound intersected
//!   into every job's [`RunBudget`], so even an "unlimited" request runs
//!   under a budget the operator chose.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use parsim_core::RunBudget;
use parsim_runtime::lock_recover;

/// The operator-configured limits applied to every tenant.
#[derive(Debug, Clone, Copy)]
pub struct TenantQuotas {
    /// Maximum jobs of one tenant in flight at once.
    pub max_in_flight: usize,
    /// Ceiling on any single job's processed-event budget; intersected
    /// into the request's own budget. `None` leaves requests unclamped.
    pub max_events_per_job: Option<u64>,
}

impl Default for TenantQuotas {
    fn default() -> Self {
        TenantQuotas { max_in_flight: 4, max_events_per_job: None }
    }
}

impl TenantQuotas {
    /// The request budget with the tenant's per-job event ceiling
    /// intersected in (the tighter bound wins).
    pub fn clamp(&self, requested: RunBudget) -> RunBudget {
        let mut b = requested;
        if let Some(cap) = self.max_events_per_job {
            b.max_events = Some(b.max_events.map_or(cap, |e| e.min(cap)));
        }
        b
    }
}

/// Why an admission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuotaExceeded {
    /// The refused tenant.
    pub tenant: String,
    /// Their configured in-flight cap.
    pub limit: usize,
}

impl std::fmt::Display for QuotaExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant `{}` already has {} jobs in flight", self.tenant, self.limit)
    }
}

/// Tracks per-tenant jobs in flight; cloned handles share one ledger. A
/// tenant has an entry only while it has a job in flight, so the map is
/// bounded by admitted jobs, not by the tenant names clients send.
#[derive(Debug, Clone, Default)]
pub struct QuotaLedger {
    tenants: Arc<Mutex<HashMap<String, usize>>>,
}

impl QuotaLedger {
    /// A fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits one job for `tenant`, or refuses if their in-flight cap is
    /// reached. The returned permit releases the slot when dropped — on
    /// every exit path, including panics unwinding through the job.
    pub fn admit(&self, tenant: &str, quotas: &TenantQuotas) -> Result<QuotaPermit, QuotaExceeded> {
        let mut map = lock_recover(&self.tenants);
        if map.get(tenant).copied().unwrap_or(0) >= quotas.max_in_flight {
            return Err(QuotaExceeded { tenant: tenant.to_owned(), limit: quotas.max_in_flight });
        }
        *map.entry(tenant.to_owned()).or_default() += 1;
        Ok(QuotaPermit { ledger: self.clone(), tenant: tenant.to_owned() })
    }

    /// Jobs currently in flight for `tenant`.
    pub fn in_flight(&self, tenant: &str) -> usize {
        lock_recover(&self.tenants).get(tenant).copied().unwrap_or(0)
    }

    /// Releases one of `tenant`'s jobs, forgetting the tenant at zero.
    fn release(&self, tenant: &str) {
        let mut map = lock_recover(&self.tenants);
        if let Some(n) = map.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                map.remove(tenant);
            }
        }
    }
}

/// Holds one admitted job's quota slot; dropping it releases the slot.
#[derive(Debug)]
pub struct QuotaPermit {
    ledger: QuotaLedger,
    tenant: String,
}

impl Drop for QuotaPermit {
    fn drop(&mut self) {
        self.ledger.release(&self.tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_in_flight_per_tenant_and_releases_on_drop() {
        let ledger = QuotaLedger::new();
        let q = TenantQuotas { max_in_flight: 2, max_events_per_job: None };
        let a1 = ledger.admit("acme", &q).unwrap();
        let _a2 = ledger.admit("acme", &q).unwrap();
        assert_eq!(ledger.in_flight("acme"), 2);
        let err = ledger.admit("acme", &q).unwrap_err();
        assert_eq!(err.limit, 2);
        // Another tenant is unaffected.
        let _b1 = ledger.admit("globex", &q).unwrap();
        drop(a1);
        assert_eq!(ledger.in_flight("acme"), 1);
        ledger.admit("acme", &q).unwrap();
    }

    #[test]
    fn ledger_forgets_tenants_with_nothing_in_flight() {
        let ledger = QuotaLedger::new();
        let q = TenantQuotas::default();
        for i in 0..10_000 {
            drop(ledger.admit(&format!("tenant-{i}"), &q).unwrap());
        }
        let closed = TenantQuotas { max_in_flight: 0, max_events_per_job: None };
        assert!(ledger.admit("refused", &closed).is_err());
        assert!(
            lock_recover(&ledger.tenants).is_empty(),
            "the ledger kept tenants with nothing in flight"
        );
    }

    #[test]
    fn event_ceiling_intersects_with_request_budget() {
        let q = TenantQuotas { max_in_flight: 1, max_events_per_job: Some(1000) };
        let unlimited = q.clamp(RunBudget::UNLIMITED);
        assert_eq!(unlimited.max_events, Some(1000));
        let tighter = q.clamp(RunBudget::UNLIMITED.with_max_events(10));
        assert_eq!(tighter.max_events, Some(10));
        let looser = q.clamp(RunBudget::UNLIMITED.with_max_events(9999));
        assert_eq!(looser.max_events, Some(1000));
        // Other axes pass through untouched.
        let r = q.clamp(RunBudget::UNLIMITED.with_max_rounds(5));
        assert_eq!(r.max_rounds, Some(5));
    }
}
