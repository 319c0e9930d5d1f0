//! GPS tracking scenario: a pedestrian's position is tracked server-side to
//! ±10 m while the device transmits a small fraction of its fixes.
//!
//! ```text
//! cargo run --example gps_tracking
//! ```
//!
//! The device runs a 2-D constant-velocity filter with online estimation of
//! the receiver noise; the server extrapolates along the learned velocity
//! between corrections. Long straight walking legs cost almost nothing;
//! turns at waypoints trigger a burst of corrections — watch the message
//! timeline the example prints.

use kalstream::core::{ProtocolConfig, SessionSpec};
use kalstream::filter::{models, AdaptiveConfig};
use kalstream::gen::{domain::GpsTrack, Stream};
use kalstream::linalg::Vector;
use kalstream::sim::{Consumer, Producer};

fn main() {
    let delta = 10.0; // metres, per axis (max-norm)
    let mut device = GpsTrack::pedestrian_default(77);
    let first = device.next_sample();

    let spec = SessionSpec::adaptive(
        models::constant_velocity_2d(1.0, 0.005, 1.0),
        Vector::from_slice(&[first.observed[0], 0.0, first.observed[1], 0.0]),
        10.0,
        AdaptiveConfig {
            window: 128,
            adapt_q: false,
        },
        ProtocolConfig::new(delta).expect("positive bound"),
    )
    .expect("valid spec");
    let (mut source, mut server) = spec.build().split();

    let ticks = 20_000u64;
    let mut obs = [0.0; 2];
    let mut tru = [0.0; 2];
    let mut worst_err: f64 = 0.0;
    let mut msgs_at_last_report = 0;
    println!("tick     position(true)        position(served)      msgs in window");
    for now in 0..ticks {
        if now == 0 {
            obs.copy_from_slice(&first.observed);
            tru.copy_from_slice(&first.truth);
        } else {
            device.next_into(&mut obs, &mut tru);
        }
        if let Some(payload) = source.observe(now, &obs) {
            server.receive(now, &payload);
        }
        let mut est = [0.0; 2];
        server.estimate(now, &mut est);
        let err = (est[0] - obs[0]).abs().max((est[1] - obs[1]).abs());
        worst_err = worst_err.max(err);
        if now % 2_000 == 1_999 {
            let msgs = source.syncs();
            println!(
                "{now:>6}  ({:>7.1}, {:>7.1})  ->  ({:>7.1}, {:>7.1})   {:>4}",
                tru[0],
                tru[1],
                est[0],
                est[1],
                msgs - msgs_at_last_report
            );
            msgs_at_last_report = msgs;
        }
    }

    println!("\nfixes produced      : {ticks}");
    println!("corrections sent    : {}", source.syncs());
    println!(
        "suppression         : {:.1}% of fixes never left the device",
        100.0 * (1.0 - source.syncs() as f64 / ticks as f64)
    );
    println!("worst served error  : {worst_err:.2} m (bound {delta} m)");
    assert!(worst_err <= delta * (1.0 + 1e-9));
    assert!(
        source.syncs() < ticks / 5,
        "tracking should suppress most fixes"
    );
}
