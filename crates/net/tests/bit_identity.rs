//! The tentpole guarantee, property-tested: a protocol session run over
//! the real TCP transport converges to *exactly* the consumer filter
//! state — every state and covariance bit, every suppression verdict,
//! every delivery count — that the deterministic sim transport produces,
//! for arbitrary fault profiles (loss, duplication, reordering, jitter),
//! latencies, and ack configurations.

use kalstream_core::{ProtocolConfig, ServerEndpoint, SessionSpec, SourceEndpoint};
use kalstream_gen::{synthetic::RandomWalk, Stream};
use kalstream_net::TcpTransport;
use kalstream_sim::{
    run_lockstep_over, LockstepStream, SessionConfig, SessionReport, SimTransport, Transport,
};
use proptest::prelude::*;

/// A boxed sampler filling `(observed, truth)` slices each tick.
type Sampler = Box<dyn FnMut(&mut [f64], &mut [f64])>;

/// One matched endpoint pair + sampler, rebuilt identically per transport.
fn build(
    seed: u64,
    delta: f64,
    ack_timeout: Option<u64>,
) -> (SourceEndpoint, ServerEndpoint, Sampler) {
    let mut gen = RandomWalk::new(0.0, 0.0, 0.5, 0.1, seed);
    let first = gen.next_sample();
    let mut config = ProtocolConfig::new(delta).expect("valid delta");
    if let Some(t) = ack_timeout {
        config = config.with_ack_timeout(t).expect("valid ack timeout");
    }
    let session = SessionSpec::default_scalar(first.observed[0], config)
        .expect("valid spec")
        .build();
    let mut first_pending = Some(first);
    let sampler = Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
        if let Some(f) = first_pending.take() {
            obs[0] = f.observed[0];
            tru[0] = f.truth[0];
        } else {
            gen.next_into(obs, tru);
        }
    });
    (session.source, session.server, sampler)
}

fn run_over(
    transport: &mut impl Transport,
    config: &SessionConfig,
    seed: u64,
    ack_timeout: Option<u64>,
) -> (SessionReport, ServerEndpoint, u64) {
    let (source, server, sampler) = build(seed, config.delta, ack_timeout);
    let mut fleet = [LockstepStream {
        producer: source,
        consumer: server,
        sampler,
    }];
    let transport = std::slice::from_mut(transport);
    let report = run_lockstep_over(config, &mut fleet, transport, |_, _, _| {});
    let [stream] = fleet;
    let syncs = stream.consumer.syncs_applied();
    let session = report.sessions.into_iter().next().expect("a fleet of one");
    (session, stream.consumer, syncs)
}

fn filter_bits(ep: &ServerEndpoint) -> Vec<u64> {
    kalstream_net::workload::endpoint_bits(ep)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tcp_session_is_bit_identical_to_sim_session(
        seed in 0u64..1_000,
        latency in 0u64..3,
        loss in 0u32..40,
        dup in 0u32..20,
        reorder in 0u32..30,
        jitter in 0u64..3,
        acked in any::<bool>(),
    ) {
        let config = SessionConfig {
            ticks: 60,
            delta: 0.5,
            latency,
            overhead_bytes: 28,
            loss_prob: loss as f64 / 100.0,
            loss_seed: seed.wrapping_mul(0x9E37_79B9),
            dup_prob: dup as f64 / 100.0,
            reorder_prob: reorder as f64 / 100.0,
            jitter,
        };
        // Ack recovery needs the gap to be coverable; only meaningful with
        // sequenced syncs, and exercised under every fault profile.
        let ack_timeout = acked.then_some(6);

        let mut sim = SimTransport::with_faults(
            config.latency, config.overhead_bytes, config.faults());
        let (sim_report, sim_server, sim_syncs) =
            run_over(&mut sim, &config, seed, ack_timeout);

        let mut tcp = TcpTransport::with_faults(
            config.latency, config.overhead_bytes, config.faults())
            .expect("loopback transport");
        let (tcp_report, tcp_server, tcp_syncs) =
            run_over(&mut tcp, &config, seed, ack_timeout);

        // Suppression verdicts: identical send schedule and byte volume.
        prop_assert_eq!(&sim_report.traffic, &tcp_report.traffic);
        prop_assert_eq!(&sim_report.ack_traffic, &tcp_report.ack_traffic);
        // Delivery accounting (stale drops, applied syncs) agrees.
        prop_assert_eq!(&sim_report.delivery, &tcp_report.delivery);
        prop_assert_eq!(sim_syncs, tcp_syncs);
        // Precision scoring agrees to the bit.
        prop_assert_eq!(
            sim_report.error_vs_observed.max_abs().to_bits(),
            tcp_report.error_vs_observed.max_abs().to_bits()
        );
        prop_assert_eq!(
            sim_report.error_vs_observed.violations(),
            tcp_report.error_vs_observed.violations()
        );
        // The consumer's filter converged to the same bits: state and
        // covariance both.
        prop_assert_eq!(filter_bits(&sim_server), filter_bits(&tcp_server));
        // And the transports charged identical traffic.
        prop_assert_eq!(sim.stats(), tcp.stats());
    }
}
