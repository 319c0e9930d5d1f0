//! Stock-ticker scenario: one server answers continuous point and
//! aggregate queries over a simulated equity feed, within user-chosen
//! precision, while the exchange link carries a fraction of the ticks.
//!
//! ```text
//! cargo run --example stock_ticker
//! ```
//!
//! Three tickers stream through three protocol sessions; a continuous
//! `AVG(price)` query (an "index") and per-ticker point queries stand in a
//! `QueryGraph` and are answered every tick from server-side predictions,
//! each answer carrying its guaranteed error bound, which the graph checks
//! against the quotes.

use kalstream::core::{ProtocolConfig, ServerEndpoint, SessionSpec, SourceEndpoint};
use kalstream::gen::{domain::StockTicker, Stream};
use kalstream::query::{AggKind, QueryGraph, StreamId, StreamView};
use kalstream::sim::{Consumer, Producer};

const TICKERS: [&str; 3] = ["ACME", "GLOBEX", "INITECH"];

struct TickerSession {
    name: &'static str,
    stream: StockTicker,
    source: SourceEndpoint,
    server: ServerEndpoint,
}

fn main() {
    let delta = 0.25; // each served price within 25 cents of the quote
    let mut sessions: Vec<TickerSession> = TICKERS
        .into_iter()
        .zip(1u64..)
        .map(|(name, seed)| {
            // Minute-bar dynamics: ~0.1% per-tick volatility on a $100
            // stock (the `liquid_default` preset's 1%/tick is daily-bar
            // scale, far too hot for a 25-cent bound).
            let stream = StockTicker::new(100.0, 1e-5, 0.001, 1.0, 0.0005, 0.01, 0.01, seed);
            let spec = SessionSpec::standard_bank(
                100.0,
                0.01,
                ProtocolConfig::new(delta).expect("positive bound"),
            )
            .expect("valid spec");
            let (source, server) = spec.build().split();
            TickerSession {
                name,
                stream,
                source,
                server,
            }
        })
        .collect();

    // Register the continuous queries: a raw alias and a point query per
    // ticker, and an index-style AVG across all three.
    let mut graph = QueryGraph::new();
    let raws = ["s0", "s1", "s2"];
    for (i, (raw, name)) in raws.iter().zip(TICKERS).enumerate() {
        graph.add_raw(raw, StreamId(i)).expect("fresh alias");
        graph
            .add_point(name, raw, delta)
            .expect("valid point query");
    }
    graph
        .add_aggregate("INDEX", AggKind::Avg, &raws, Some(delta))
        .expect("valid aggregate");

    let ticks = 5_000u64;
    let mut obs = [0.0];
    let mut tru = [0.0];
    let mut views = Vec::with_capacity(sessions.len());
    let mut quotes = Vec::with_capacity(sessions.len());
    for now in 0..ticks {
        views.clear();
        quotes.clear();
        for s in sessions.iter_mut() {
            s.stream.next_into(&mut obs, &mut tru);
            // Source side: suppression decision; wire to server on sync.
            if let Some(payload) = s.source.observe(now, &obs) {
                s.server.receive(now, &payload);
            }
            let mut est = [0.0];
            s.server.estimate(now, &mut est);
            views.push(StreamView {
                value: est[0],
                delta: s.source.delta(),
                staleness: s.server.staleness(),
            });
            quotes.push(obs[0]);
        }
        graph.observe_tick(&views, &[]);
        graph.verify_tick(&quotes);
        if now % 1000 == 999 {
            println!("tick {now}:");
            for s in &sessions {
                let a = graph.answer(s.name).expect("answered every tick");
                println!(
                    "  {:8} ${:>8.2} ± {:.2}  (cache age {} ticks, {} msgs so far)",
                    s.name,
                    a.value,
                    a.bound,
                    a.max_staleness,
                    s.source.syncs()
                );
            }
            let index = graph.answer("INDEX").expect("answered every tick");
            println!("  {:8} ${:>8.2} ± {:.2}", "INDEX", index.value, index.bound);
        }
    }

    let total_msgs: u64 = sessions.iter().map(|s| s.source.syncs()).sum();
    let shipped_all = ticks * sessions.len() as u64;
    println!(
        "\n{total_msgs} messages for {shipped_all} quotes ({:.1}% of ship-everything)",
        100.0 * total_msgs as f64 / shipped_all as f64
    );
    assert_eq!(graph.violations(), 0, "an answer left its bound");
    assert!(
        total_msgs < shipped_all / 2,
        "suppression should save at least half"
    );
}
