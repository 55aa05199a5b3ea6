//! Distributed JMS server architectures (paper §IV-C).
//!
//! Two ways to scale beyond one server, both built from off-the-shelf
//! brokers:
//!
//! * **PSR** (publisher-side replication): every publisher runs its own
//!   broker; all `m` subscribers register their `n_fltr` filters on *each*
//!   of the `n` publisher-side brokers. System capacity (Eq. 21):
//!   `λ_PSR = ρ·n / (t_rcv + m·n_fltr·t_fltr + E[R]·t_tx)`.
//! * **SSR** (subscriber-side replication): every subscriber runs its own
//!   broker; each publisher multicasts every message to all `m` of them.
//!   Each broker carries the full publish rate but only one subscriber's
//!   filters (Eq. 22): `λ_SSR = ρ / (t_rcv + n_fltr·t_fltr + E[R]·t_tx)`.
//!
//! PSR scales with publishers but degrades with subscribers; SSR is flat in
//! both. The printed Eq. 23 of the proceedings has the inequality direction
//! garbled; the crossover implemented here follows directly from comparing
//! Eqs. 21 and 22: PSR outperforms SSR iff
//! `n > (t_rcv + m·n_fltr·t_fltr + E[R]·t_tx) / (t_rcv + n_fltr·t_fltr + E[R]·t_tx)`.

use crate::params::CostParams;
use crate::waiting::WaitingTimeAnalysis;
use rjms_queueing::mg1::Mg1Error;
use rjms_queueing::replication::ReplicationModel;
use rjms_queueing::service::ServiceTime;
use serde::{Deserialize, Serialize};

/// A distributed deployment scenario: `n` publishers, `m` subscribers, each
/// subscriber holding `n_fltr` filters, publishing with mean replication
/// grade `E[R]` per message, at a per-server utilization budget `ρ`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributedScenario {
    /// Cost parameters of the individual brokers.
    pub params: CostParams,
    /// Number of publishers `n`.
    pub publishers: u32,
    /// Number of subscribers `m`.
    pub subscribers: u32,
    /// Filters installed per subscriber (paper's comparison uses 10).
    pub filters_per_subscriber: u32,
    /// Mean replication grade `E[R]` of a published message.
    pub mean_replication: f64,
    /// Per-server utilization budget `ρ`.
    pub rho: f64,
}

impl DistributedScenario {
    /// Validates the scenario's numeric ranges.
    ///
    /// # Panics
    ///
    /// Panics if `rho ∉ (0, 1]`, a population is zero, or `E[R]` is
    /// negative.
    fn validate(&self) {
        assert!(self.publishers > 0, "need at least one publisher");
        assert!(self.subscribers > 0, "need at least one subscriber");
        assert!(
            self.rho > 0.0 && self.rho <= 1.0,
            "utilization budget must be in (0, 1], got {}",
            self.rho
        );
        assert!(self.mean_replication >= 0.0, "mean replication must be >= 0");
    }

    /// Mean service time on one *publisher-side* broker: it carries the
    /// filters of all `m` subscribers.
    fn psr_service_time(&self) -> f64 {
        let n_fltr = self.subscribers as u64 * self.filters_per_subscriber as u64;
        self.params.t_rcv
            + n_fltr as f64 * self.params.t_fltr
            + self.mean_replication * self.params.t_tx
    }

    /// Mean service time on one *subscriber-side* broker: it carries only
    /// its own subscriber's filters.
    fn ssr_service_time(&self) -> f64 {
        self.params.t_rcv
            + self.filters_per_subscriber as f64 * self.params.t_fltr
            + self.mean_replication * self.params.t_tx
    }

    /// PSR system capacity (Eq. 21), received messages per second across
    /// all publishers.
    pub fn psr_capacity(&self) -> f64 {
        self.validate();
        self.rho * self.publishers as f64 / self.psr_service_time()
    }

    /// Capacity of a *single* publisher-side broker — the relevant figure
    /// for waiting-time trouble: for `m = 10⁴` subscribers this drops to a
    /// few messages per second.
    pub fn psr_per_server_capacity(&self) -> f64 {
        self.validate();
        self.rho / self.psr_service_time()
    }

    /// SSR system capacity (Eq. 22), independent of `n` and `m`.
    pub fn ssr_capacity(&self) -> f64 {
        self.validate();
        self.rho / self.ssr_service_time()
    }

    /// Whether PSR yields a higher system capacity than SSR for this
    /// scenario (the corrected Eq. 23).
    pub fn psr_outperforms_ssr(&self) -> bool {
        self.psr_capacity() > self.ssr_capacity()
    }

    /// The publisher count above which PSR outperforms SSR, for this
    /// scenario's `m`: the ratio of the two per-server service times.
    pub fn crossover_publishers(&self) -> f64 {
        self.validate();
        self.psr_service_time() / self.ssr_service_time()
    }

    /// Network load (copies/s crossing the interconnect) under PSR:
    /// messages are filtered *before* they leave the publisher site, so only
    /// matched copies travel: `λ_sys · E[R]` at full capacity.
    pub fn psr_network_load(&self) -> f64 {
        self.psr_capacity() * self.mean_replication
    }

    /// Network load under SSR: every message is multicast to all `m`
    /// subscriber-side brokers *before* filtering: `λ_sys · m`.
    pub fn ssr_network_load(&self) -> f64 {
        self.ssr_capacity() * self.subscribers as f64
    }
}

/// **Extension (the paper's announced future work):** a subscriber-
/// partitioned broker cluster.
///
/// The paper concludes that neither PSR nor SSR scales in both the number
/// of publishers *and* subscribers, and announces work on "concepts to
/// achieve true JMS system scalability". This type models the natural such
/// concept with off-the-shelf brokers: a cluster of `k` brokers where the
/// `m` subscribers are *partitioned* across brokers (each broker carries
/// `m/k` subscribers' filters) and every publisher multicasts each message
/// to all `k` brokers.
///
/// Per-broker mean service time:
/// `E[B_k] = t_rcv + (m/k)·n_fltr·t_fltr + (E[R]/k)·t_tx`
/// (filters *and* dispatched copies split across the partition), so the
/// system capacity `ρ/E[B_k]` grows with `k` — in the subscriber dimension —
/// while being independent of the publisher count `n`, unlike PSR and SSR.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterScenario {
    /// Cost parameters of the individual brokers.
    pub params: CostParams,
    /// Number of brokers `k` in the cluster.
    pub brokers: u32,
    /// Number of subscribers `m` (partitioned across brokers).
    pub subscribers: u32,
    /// Filters installed per subscriber.
    pub filters_per_subscriber: u32,
    /// Mean replication grade `E[R]` of a published message (across the
    /// whole cluster).
    pub mean_replication: f64,
    /// Per-broker utilization budget `ρ`.
    pub rho: f64,
}

impl ClusterScenario {
    fn validate(&self) {
        assert!(self.brokers > 0, "need at least one broker");
        assert!(self.subscribers > 0, "need at least one subscriber");
        assert!(
            self.rho > 0.0 && self.rho <= 1.0,
            "utilization budget must be in (0, 1], got {}",
            self.rho
        );
        assert!(self.mean_replication >= 0.0, "mean replication must be >= 0");
    }

    /// Mean service time on one cluster broker (its filter partition plus
    /// its share of the dispatched copies).
    pub fn per_broker_service_time(&self) -> f64 {
        self.validate();
        let k = self.brokers as f64;
        let partition_filters = self.subscribers as f64 * self.filters_per_subscriber as f64 / k;
        self.params.t_rcv
            + self.params.t_store
            + partition_filters * self.params.t_fltr
            + (self.mean_replication / k) * self.params.t_tx
    }

    /// The full stochastic per-broker service time: Eq. 1 restricted to
    /// one broker's filter partition (`m·n_fltr/k` filters) with a
    /// deterministic per-broker replication share `E[R]/k`. This is what
    /// the M/GI/1 machinery needs to predict *waiting times* on a cluster
    /// broker, not just its capacity.
    pub fn per_broker_service(&self) -> ServiceTime {
        self.validate();
        let k = self.brokers as f64;
        let partition_filters = self.subscribers as f64 * self.filters_per_subscriber as f64 / k;
        let deterministic =
            self.params.t_rcv + self.params.t_store + partition_filters * self.params.t_fltr;
        ServiceTime::new(
            deterministic,
            self.params.t_tx,
            ReplicationModel::deterministic(self.mean_replication / k),
        )
    }

    /// Predicted waiting-time distribution on one cluster broker carrying
    /// `per_broker_rate` received messages per second. Each broker is one
    /// M/GI/1 server, so the prediction holds per broker; a symmetric
    /// cluster has the same distribution on every broker, which is also
    /// the waiting time an arbitrary message experiences system-wide.
    ///
    /// Note the rate semantics: under multicast ingress every broker sees
    /// the full publish stream (`per_broker_rate = λ`); under a
    /// topic-sharded ingress each shard sees its partition
    /// (`per_broker_rate = λ/k`). The scenario itself is agnostic — it
    /// models what one broker does with the messages it receives.
    ///
    /// # Errors
    ///
    /// Returns [`Mg1Error`] if the implied utilization
    /// `per_broker_rate · E[B_k]` reaches 1 (no stationary regime).
    pub fn waiting_time(&self, per_broker_rate: f64) -> Result<WaitingTimeAnalysis, Mg1Error> {
        assert!(
            per_broker_rate.is_finite() && per_broker_rate > 0.0,
            "per-broker rate must be finite and > 0, got {per_broker_rate}"
        );
        let service = self.per_broker_service();
        let rho = per_broker_rate * service.mean();
        WaitingTimeAnalysis::for_service_time(service, rho)
    }

    /// System capacity in received messages per second. Every broker sees
    /// the full publish stream, so the system rate equals the (identical)
    /// per-broker rate.
    pub fn capacity(&self) -> f64 {
        self.rho / self.per_broker_service_time()
    }

    /// The smallest cluster size that supports a target received message
    /// rate, or `None` if even an infinite cluster cannot (the per-message
    /// receive cost `t_rcv` does not shrink with `k`).
    pub fn brokers_needed_for(&self, target_rate: f64) -> Option<u32> {
        self.validate();
        assert!(target_rate > 0.0, "target rate must be positive");
        // ρ/target >= t_rcv + (m·n_fltr·t_fltr + E[R]·t_tx)/k  →  solve k.
        let budget = self.rho / target_rate - self.params.t_rcv;
        if budget <= 0.0 {
            return None;
        }
        let shrinking =
            self.subscribers as f64 * self.filters_per_subscriber as f64 * self.params.t_fltr
                + self.mean_replication * self.params.t_tx;
        Some((shrinking / budget).ceil().max(1.0) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(n: u32, m: u32) -> DistributedScenario {
        DistributedScenario {
            params: CostParams::CORRELATION_ID,
            publishers: n,
            subscribers: m,
            filters_per_subscriber: 10,
            mean_replication: 1.0,
            rho: 0.9,
        }
    }

    #[test]
    fn eq21_eq22_closed_forms() {
        let s = scenario(10, 100);
        let p = CostParams::CORRELATION_ID;
        let psr_expect = 0.9 * 10.0 / (p.t_rcv + 100.0 * 10.0 * p.t_fltr + 1.0 * p.t_tx);
        let ssr_expect = 0.9 / (p.t_rcv + 10.0 * p.t_fltr + 1.0 * p.t_tx);
        assert!((s.psr_capacity() - psr_expect).abs() / psr_expect < 1e-12);
        assert!((s.ssr_capacity() - ssr_expect).abs() / ssr_expect < 1e-12);
    }

    #[test]
    fn ssr_is_flat_in_n_and_m() {
        assert_eq!(scenario(1, 10).ssr_capacity(), scenario(1000, 10).ssr_capacity());
        assert_eq!(scenario(10, 10).ssr_capacity(), scenario(10, 10_000).ssr_capacity());
    }

    #[test]
    fn psr_scales_with_publishers_and_degrades_with_subscribers() {
        assert!(scenario(100, 100).psr_capacity() > scenario(10, 100).psr_capacity());
        assert!(scenario(10, 10).psr_capacity() > scenario(10, 10_000).psr_capacity());
    }

    #[test]
    fn psr_wins_for_many_publishers_few_subscribers() {
        // Fig. 15: PSR outperforms SSR for medium/large n and small/medium m.
        assert!(scenario(1000, 10).psr_outperforms_ssr());
        assert!(!scenario(2, 10_000).psr_outperforms_ssr());
    }

    #[test]
    fn crossover_consistent_with_comparison() {
        for m in [10u32, 100, 1000] {
            let base = scenario(1, m);
            let cross = base.crossover_publishers();
            let below = DistributedScenario { publishers: (cross * 0.9).max(1.0) as u32, ..base };
            let above = DistributedScenario { publishers: (cross * 1.2).ceil() as u32 + 1, ..base };
            assert!(!below.psr_outperforms_ssr() || cross < 2.0);
            assert!(above.psr_outperforms_ssr());
        }
    }

    #[test]
    fn paper_example_m_1e4_per_server_capacity_single_digit() {
        // §IV-C.3: for m = 10⁴ subscribers the capacity of a single
        // publisher-side server collapses to a few messages per second
        // (the paper quotes 7 msgs/s; plugging the stated parameters into
        // its own Eq. 21 yields ≈1.3 msgs/s — same order, and either value
        // produces the seconds-scale waiting times the paper warns about).
        let s = scenario(100, 10_000);
        let per_server = s.psr_per_server_capacity();
        assert!(per_server > 0.5 && per_server < 10.0, "per-server capacity = {per_server} msgs/s");
        let expect = 0.9
            / (CostParams::CORRELATION_ID.t_rcv
                + 1e5 * CostParams::CORRELATION_ID.t_fltr
                + CostParams::CORRELATION_ID.t_tx);
        assert!((per_server - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn network_load_ssr_exceeds_psr() {
        // §IV-C.2: since m bounds R, SSR produces significantly more
        // network traffic than PSR.
        let s = scenario(10, 1000);
        assert!(s.ssr_network_load() > s.psr_network_load());
    }

    #[test]
    #[should_panic(expected = "at least one publisher")]
    fn rejects_zero_publishers() {
        scenario(0, 10).psr_capacity();
    }

    fn cluster(k: u32, m: u32) -> ClusterScenario {
        ClusterScenario {
            params: CostParams::CORRELATION_ID,
            brokers: k,
            subscribers: m,
            filters_per_subscriber: 10,
            mean_replication: 1.0,
            rho: 0.9,
        }
    }

    #[test]
    fn single_broker_cluster_is_one_server_with_all_filters() {
        let c = cluster(1, 100);
        let expect = 0.9 / CostParams::CORRELATION_ID.mean_service_time(1000, 1.0);
        assert!((c.capacity() - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn per_broker_service_matches_scalar_mean() {
        for k in [1u32, 2, 4, 10] {
            let c = cluster(k, 100);
            let service = c.per_broker_service();
            let mean = c.per_broker_service_time();
            assert!((service.mean() - mean).abs() / mean < 1e-12, "k={k}");
        }
    }

    #[test]
    fn single_broker_waiting_matches_server_model() {
        // k = 1 must reproduce the plain ServerModel analysis exactly.
        let c = cluster(1, 100);
        let rate = 0.5 / c.per_broker_service_time();
        let clustered = c.waiting_time(rate).unwrap().report();
        let direct = WaitingTimeAnalysis::for_model(
            &crate::model::ServerModel::new(c.params, 1000),
            ReplicationModel::deterministic(1.0),
            0.5,
        )
        .unwrap()
        .report();
        let rel = (clustered.mean_waiting_time - direct.mean_waiting_time).abs()
            / direct.mean_waiting_time;
        assert!(rel < 1e-9, "rel {rel}");
        assert!((clustered.q99 - direct.q99).abs() / direct.q99 < 1e-9);
    }

    #[test]
    fn cluster_waiting_shrinks_with_brokers_at_fixed_per_broker_rate_share() {
        // Partitioned ingress: each of k brokers carries λ/k of a fixed
        // total stream. More brokers → smaller partitions → shorter
        // per-broker service → lower utilization → shorter waits.
        let total_rate = 0.6 / cluster(1, 1000).per_broker_service_time();
        let w1 = cluster(1, 1000).waiting_time(total_rate).unwrap().report();
        let w4 = cluster(4, 1000).waiting_time(total_rate / 4.0).unwrap().report();
        assert!(w4.mean_waiting_time < w1.mean_waiting_time / 4.0);
        assert!(w4.q99 < w1.q99);
    }

    #[test]
    fn waiting_time_rejects_saturated_rate() {
        let c = cluster(2, 100);
        let saturating = 1.0 / c.per_broker_service_time();
        assert!(c.waiting_time(saturating).is_err());
        assert!(c.waiting_time(saturating * 0.9).is_ok());
    }

    #[test]
    fn cluster_capacity_scales_with_brokers() {
        let m = 10_000;
        let c1 = cluster(1, m).capacity();
        let c10 = cluster(10, m).capacity();
        let c100 = cluster(100, m).capacity();
        assert!(c10 > 9.0 * c1, "filter splitting must scale nearly linearly");
        assert!(c100 > c10);
    }

    #[test]
    fn cluster_with_k_equals_m_approaches_ssr() {
        // SSR *is* the k = m cluster (one broker per subscriber); the only
        // difference is the per-broker transmit share (E[R] vs E[R]/k),
        // negligible against the filter term.
        let m = 1_000;
        let clus = cluster(m, m);
        // Exact relation: the cluster broker's service time is the SSR
        // broker's with t_tx scaled by 1/k.
        let p = CostParams::CORRELATION_ID;
        let ssr_e_b = p.t_rcv + 10.0 * p.t_fltr + 1.0 * p.t_tx;
        let expected = ssr_e_b - (1.0 - 1.0 / m as f64) * p.t_tx;
        assert!(
            (clus.per_broker_service_time() - expected).abs() < 1e-15,
            "cluster E[B] {} vs expected {}",
            clus.per_broker_service_time(),
            expected
        );
        // In the filter-dominated regime the two coincide.
        let heavy = ClusterScenario { filters_per_subscriber: 1_000, ..clus };
        let heavy_ssr = 0.9 / (p.t_rcv + 1_000.0 * p.t_fltr + p.t_tx);
        assert!((heavy.capacity() - heavy_ssr).abs() / heavy_ssr < 0.01);
    }

    #[test]
    fn cluster_capacity_equals_psr_at_equal_broker_count() {
        // Work conservation under brute-force filtering: k brokers
        // evaluating disjoint *filter* partitions over all messages do the
        // same total filter work as k PSR brokers evaluating all filters
        // over disjoint *message* streams — so the system capacities almost
        // coincide (up to the duplicated t_rcv and the t_tx split). The
        // cluster's advantages are structural: one logical server for
        // subscribers, capacity independent of the publisher count.
        let m = 10_000;
        let k = 100;
        let clus = cluster(k, m).capacity();
        let psr = scenario(k, m).psr_capacity();
        assert!((clus - psr).abs() / psr < 0.02, "cluster {clus} vs PSR {psr}");
    }

    #[test]
    fn brokers_needed_inverse_of_capacity() {
        let c = cluster(1, 10_000);
        let target = 5_000.0;
        let k = c.brokers_needed_for(target).expect("achievable");
        let with_k = ClusterScenario { brokers: k, ..c };
        assert!(with_k.capacity() >= target, "k={k}: {}", with_k.capacity());
        if k > 1 {
            let with_fewer = ClusterScenario { brokers: k - 1, ..c };
            assert!(with_fewer.capacity() < target);
        }
    }

    #[test]
    fn brokers_needed_unreachable_target() {
        // Beyond ρ/t_rcv no cluster size helps.
        let c = cluster(1, 100);
        let max_possible = 0.9 / CostParams::CORRELATION_ID.t_rcv;
        assert_eq!(c.brokers_needed_for(max_possible * 1.01), None);
    }
}
