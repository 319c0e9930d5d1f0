//! [`ElasticDriver`]: the loop closure between the controller and the
//! ingest pipeline, as a barrier hook.
//!
//! The driver is handed the pipeline by reference after each tick. Every
//! [`SAMPLE_EVERY`] ticks it takes the frames the pipeline's router offered
//! over the window (a pure function of the traffic — no clocks) and hands
//! the controller a [`LoadSample`].
//! Non-hold decisions are executed immediately through the caller's
//! `reassign` — [`IngestPipeline::reassign`], behind a checkpoint when the
//! run is durable — which quiesces at the tick barrier, so a resize can only
//! ever land *between* ticks, never inside one, and the run stays
//! bit-identical to an unresized one.

use std::io;

use kalstream_core::{IngestPipeline, ResizeTransition};
use kalstream_obs::{Instrument, Scope};

use crate::controller::{ControllerConfig, Decision, ElasticController, LoadSample};

/// Ticks per observation window: the driver samples the controller at
/// every `SAMPLE_EVERY`-th tick barrier.
pub const SAMPLE_EVERY: u64 = 5;

/// Which way a resize went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeKind {
    /// More shards.
    Grow,
    /// Fewer shards.
    Shrink,
}

/// One executed resize, for experiment tables and artifacts.
#[derive(Debug, Clone, Copy)]
pub struct ResizeEvent {
    /// Tick at whose barrier the resize executed.
    pub tick: u64,
    /// Grow or shrink.
    pub kind: ResizeKind,
    /// Shard count before.
    pub from: usize,
    /// Shard count after.
    pub to: usize,
    /// Wall-clock ingest stall paid at the drain barrier. Reported in
    /// artifacts only, never in deterministic tables.
    pub stall: std::time::Duration,
}

/// The controller loop, closed around a pipeline it is lent after each tick.
pub struct ElasticDriver {
    controller: ElasticController,
    window_ticks: u64,
    ticks: u64,
    events: Vec<ResizeEvent>,
}

impl ElasticDriver {
    /// Attaches to `pipeline`. The controller starts believing whatever
    /// shape the pipeline is actually in, and the first observation window
    /// opens now: load routed before the driver attached (a WAL replay) is
    /// discarded.
    ///
    /// # Panics
    /// Panics when the pipeline's shard count lies outside the controller's
    /// `[min_shards, max_shards]` range.
    pub fn new(config: ControllerConfig, pipeline: &mut IngestPipeline) -> Self {
        pipeline.take_offered();
        ElasticDriver {
            controller: ElasticController::new(config, pipeline.shards()),
            window_ticks: 0,
            ticks: 0,
            events: Vec::new(),
        }
    }

    /// The controller (stats, believed shape).
    pub fn controller(&self) -> &ElasticController {
        &self.controller
    }

    /// Every resize executed so far, in order.
    pub fn events(&self) -> &[ResizeEvent] {
        &self.events
    }

    /// Worst ingest stall paid at any resize barrier so far, in
    /// milliseconds. Wall-clock — artifact material, not table material.
    pub fn max_stall_ms(&self) -> f64 {
        self.events
            .iter()
            .map(|e| e.stall.as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    }

    /// The barrier hook: call after each `pipeline.ingest_tick`. When the
    /// observation window closes it samples the controller and executes its
    /// decision at this tick barrier through `reassign` — plain
    /// `|pipeline, to| Ok(pipeline.reassign(to))`, or
    /// `kalstream_durable::Durability::reassign` (checkpoint first) when the
    /// run is durable.
    ///
    /// # Errors
    /// Propagates `reassign`'s error (a failed resize-barrier checkpoint).
    pub fn after_tick(
        &mut self,
        pipeline: &mut IngestPipeline,
        reassign: impl FnOnce(&mut IngestPipeline, usize) -> io::Result<ResizeTransition>,
    ) -> io::Result<()> {
        self.ticks += 1;
        self.window_ticks += 1;
        if self.window_ticks < SAMPLE_EVERY {
            return Ok(());
        }
        let decision = self.controller.observe(&LoadSample {
            offered: pipeline.take_offered(),
            ticks: self.window_ticks,
        });
        self.window_ticks = 0;
        let (kind, to) = match decision {
            Decision::Hold => return Ok(()),
            Decision::Grow { to } => (ResizeKind::Grow, to),
            Decision::Shrink { to } => (ResizeKind::Shrink, to),
        };
        let result = reassign(pipeline, to);
        // Believe what actually happened: a failed checkpoint leaves the
        // pipeline in its old shape.
        self.controller.sync_shards(pipeline.shards());
        let transition = result?;
        self.events.push(ResizeEvent {
            tick: self.ticks,
            kind,
            from: transition.from,
            to: transition.to,
            stall: transition.stall,
        });
        Ok(())
    }
}

impl Instrument for ElasticDriver {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.observe("controller", self.controller.stats());
        scope.counter("resizes", self.events.len() as u64);
        scope.gauge("max_stall_ms", self.max_stall_ms());
        scope.gauge("shards", self.controller.shards() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalstream_core::{
        FrameBatch, ProtocolConfig, SequentialIngest, ServerEndpoint, SessionSpec, StreamSession,
    };
    use kalstream_sim::Producer;

    /// `n` scalar sessions and a framed log whose per-tick message volume
    /// follows `active(t)`: only the first `active(t)` sources get a
    /// volatile signal that tick (the rest see a constant and suppress), so
    /// offered load swings with `active` while every stream stays in
    /// lockstep.
    fn record_swing_log(
        n: u32,
        ticks: u64,
        active: impl Fn(u64) -> u32,
    ) -> (Vec<(u32, ServerEndpoint)>, Vec<Vec<u8>>) {
        let mut sources = Vec::new();
        let mut servers = Vec::new();
        for id in 0..n {
            let config = ProtocolConfig::new(0.2).unwrap();
            let StreamSession { source, server } =
                SessionSpec::default_scalar(0.0, config).unwrap().build();
            sources.push((id, source));
            servers.push((id, server));
        }
        let mut log = Vec::new();
        for t in 0..ticks {
            let hot = active(t);
            let mut batch = FrameBatch::new();
            for (id, source) in sources.iter_mut() {
                let v = if *id < hot {
                    ((t as f64) * 1.3 + *id as f64).sin() * 10.0
                } else {
                    0.0
                };
                if let Some(payload) = source.observe(t, &[v]) {
                    batch.push_raw(*id, &payload);
                }
            }
            log.push(batch.as_bytes().to_vec());
        }
        (servers, log)
    }

    fn filter_bits(ep: &ServerEndpoint) -> Vec<u64> {
        let f = ep.filter();
        f.state()
            .iter()
            .map(|v| v.to_bits())
            .chain(f.covariance().as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// A one-shard pipeline driven through `log` with the driver hooked in
    /// after every tick.
    fn run_elastic(
        servers: Vec<(u32, ServerEndpoint)>,
        log: &[Vec<u8>],
    ) -> (IngestPipeline, ElasticDriver) {
        let mut pipe = IngestPipeline::start(1, servers);
        let mut elastic = ElasticDriver::new(ControllerConfig::new(1, 4, 3.0), &mut pipe);
        for tick in log {
            pipe.ingest_tick(tick);
            elastic
                .after_tick(&mut pipe, |pipe, to| Ok(pipe.reassign(to)))
                .unwrap();
        }
        (pipe, elastic)
    }

    #[test]
    fn controller_tracks_a_load_swing_and_stays_bit_identical() {
        // Step load: quiet → all 12 streams hot → quiet again.
        let active = |t: u64| -> u32 {
            if (40..120).contains(&t) {
                12
            } else {
                1
            }
        };
        let (servers, log) = record_swing_log(12, 160, active);
        let mut seq = SequentialIngest::new(servers.clone());
        for tick in &log {
            seq.ingest_tick(tick);
        }
        let seq_result = seq.finish();
        assert!(seq_result.total_messages() > 0);

        let (pipe, elastic) = run_elastic(servers, &log);
        let stats = elastic.controller().stats();
        assert!(stats.grows >= 1, "hot phase must grow: {stats:?}");
        assert!(stats.shrinks >= 1, "quiet tail must shrink: {stats:?}");
        let result = pipe.finish();
        assert_eq!(result.total_messages(), seq_result.total_messages());
        for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(seq_result.endpoints.iter()) {
            assert_eq!(id_a, id_b);
            assert_eq!(filter_bits(a), filter_bits(b), "stream {id_a} diverged");
        }
    }

    #[test]
    fn decisions_are_reproducible_run_to_run() {
        let active = |t: u64| -> u32 {
            if t >= 30 {
                12
            } else {
                1
            }
        };
        let run = || {
            let (servers, log) = record_swing_log(12, 90, active);
            let (pipe, elastic) = run_elastic(servers, &log);
            pipe.finish();
            elastic
                .events()
                .iter()
                .map(|e| (e.tick, e.from, e.to))
                .collect::<Vec<(u64, usize, usize)>>()
        };
        let first = run();
        assert!(!first.is_empty());
        assert_eq!(first, run(), "same traffic must produce same decisions");
    }

    #[test]
    fn obs_export_names_are_stable() {
        let (servers, _) = record_swing_log(2, 0, |_| 0);
        let (pipe, elastic) = run_elastic(servers, &[]);
        let mut registry = kalstream_obs::Registry::new();
        registry.observe("elastic", &elastic);
        let snap = registry.snapshot();
        assert!(snap.counter("elastic.controller.grows").is_some());
        assert!(snap.counter("elastic.resizes").is_some());
        assert!(snap.gauge("elastic.shards").is_some());
        pipe.finish();
    }
}
