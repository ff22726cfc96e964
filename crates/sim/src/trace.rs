//! Structured event trace: typed device events, the bounded in-memory
//! log they land in, and [`Timeline`], the one Chrome-trace
//! (`chrome://tracing` / Perfetto) writer in the workspace.
//!
//! Tracing is off by default. Enable the in-memory buffer with
//! [`crate::GpuConfig::trace`]. Every emission site in the device is
//! guarded by a single "is tracing on?" branch, so the disabled path
//! costs one predictable branch and no allocation.

use std::fmt;
use std::fmt::Write as _;

use ggpu_isa::FaultKind;

use crate::json::{escape, num, quoted, JsonWriter};

/// Direction of a `cudaMemcpy` transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDir {
    /// Host to device.
    H2D,
    /// Device to host.
    D2H,
    /// Device to device across the node fabric (peer-to-peer).
    P2P,
}

impl fmt::Display for CopyDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CopyDir::H2D => "h2d",
            CopyDir::D2H => "d2h",
            CopyDir::P2P => "p2p",
        })
    }
}

/// What happened (the event taxonomy; see DESIGN.md §Observability).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A grid was enqueued from the host (`<<<>>>`).
    KernelLaunch {
        /// Grid handle (unique per launch).
        grid: u64,
        /// Kernel name.
        kernel: String,
        /// CTAs in the grid.
        ctas: u64,
        /// Threads per CTA.
        threads_per_cta: u32,
        /// Owning stream (0 is the default stream).
        stream: usize,
    },
    /// A device-side (CDP) child launch was enqueued.
    CdpEnqueue {
        /// Child grid handle.
        grid: u64,
        /// Kernel name.
        kernel: String,
        /// Parent grid handle.
        parent: u64,
        /// Nesting depth of the child (parent depth + 1).
        depth: u32,
        /// CTAs in the child grid.
        ctas: u64,
        /// Threads per CTA.
        threads_per_cta: u32,
        /// Owning stream (inherited from the parent grid).
        stream: usize,
    },
    /// A grid dispatched its first CTA (launch overhead elapsed).
    KernelStart {
        /// Grid handle.
        grid: u64,
        /// Owning stream.
        stream: usize,
    },
    /// A grid's last CTA completed.
    KernelRetire {
        /// Grid handle.
        grid: u64,
        /// Owning stream.
        stream: usize,
    },
    /// A CDP child retired and unparked its parent's pending-children count.
    CdpDrain {
        /// Parent grid handle.
        parent: u64,
        /// Child grid handle that drained.
        child: u64,
    },
    /// A `cudaMemcpy`-style PCIe transfer.
    Memcpy {
        /// Transfer direction.
        dir: CopyDir,
        /// Bytes moved.
        bytes: u64,
        /// Modelled PCIe cycles the transfer took.
        cycles: u64,
    },
    /// An L2 line was filled from DRAM (emitted only when
    /// [`crate::GpuConfig::trace_cache_fills`] is set — high frequency).
    CacheFill {
        /// Memory partition of the filled slice.
        partition: u64,
        /// Byte address of the filled line.
        addr: u64,
    },
    /// A guest fault poisoned its owning stream (device-wide on stream 0).
    Fault {
        /// Architectural fault class.
        kind: FaultKind,
        /// Name of the faulting kernel.
        kernel: String,
        /// Stream the fault landed on (0 is device-wide).
        stream: usize,
    },
    /// The forward-progress watchdog fired.
    Deadlock {
        /// Consecutive cycles without forward progress.
        stalled_for: u64,
        /// Stream of the grid that was active when the watchdog fired.
        stream: usize,
    },
}

impl TraceEventKind {
    /// Short machine-readable tag for this event kind.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEventKind::KernelLaunch { .. } => "kernel_launch",
            TraceEventKind::CdpEnqueue { .. } => "cdp_enqueue",
            TraceEventKind::KernelStart { .. } => "kernel_start",
            TraceEventKind::KernelRetire { .. } => "kernel_retire",
            TraceEventKind::CdpDrain { .. } => "cdp_drain",
            TraceEventKind::Memcpy { .. } => "memcpy",
            TraceEventKind::CacheFill { .. } => "cache_fill",
            TraceEventKind::Fault { .. } => "fault",
            TraceEventKind::Deadlock { .. } => "deadlock",
        }
    }

    /// Whether this event records a terminal device error. Terminal events
    /// bypass the trace-buffer capacity so a truncated trace still ends
    /// with its fault.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            TraceEventKind::Fault { .. } | TraceEventKind::Deadlock { .. }
        )
    }
}

/// One timestamped device event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Device cycle at which the event was recorded.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Serialize as a standalone JSON object (the structured export form).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.u64("cycle", self.cycle);
        w.str("event", self.kind.tag());
        match &self.kind {
            TraceEventKind::KernelLaunch {
                grid,
                kernel,
                ctas,
                threads_per_cta,
                stream,
            } => {
                w.u64("grid", *grid)
                    .str("kernel", kernel)
                    .u64("ctas", *ctas)
                    .u64("threads_per_cta", *threads_per_cta as u64)
                    .u64("stream", *stream as u64);
            }
            TraceEventKind::CdpEnqueue {
                grid,
                kernel,
                parent,
                depth,
                ctas,
                threads_per_cta,
                stream,
            } => {
                w.u64("grid", *grid)
                    .str("kernel", kernel)
                    .u64("parent", *parent)
                    .u64("depth", *depth as u64)
                    .u64("ctas", *ctas)
                    .u64("threads_per_cta", *threads_per_cta as u64)
                    .u64("stream", *stream as u64);
            }
            TraceEventKind::KernelStart { grid, stream }
            | TraceEventKind::KernelRetire { grid, stream } => {
                w.u64("grid", *grid).u64("stream", *stream as u64);
            }
            TraceEventKind::CdpDrain { parent, child } => {
                w.u64("parent", *parent).u64("child", *child);
            }
            TraceEventKind::Memcpy { dir, bytes, cycles } => {
                w.str("dir", &dir.to_string())
                    .u64("bytes", *bytes)
                    .u64("cycles", *cycles);
            }
            TraceEventKind::CacheFill { partition, addr } => {
                w.u64("partition", *partition).u64("addr", *addr);
            }
            TraceEventKind::Fault {
                kind,
                kernel,
                stream,
            } => {
                w.str("kind", &kind.to_string())
                    .str("kernel", kernel)
                    .u64("stream", *stream as u64);
            }
            TraceEventKind::Deadlock {
                stalled_for,
                stream,
            } => {
                w.u64("stalled_for", *stalled_for)
                    .u64("stream", *stream as u64);
            }
        }
        w.end_obj();
        w.finish()
    }
}

/// The device's in-memory event log, bounded by capacity.
///
/// When the buffer is full, further events are dropped (and counted) —
/// except terminal fault/deadlock events, which are always retained so a
/// truncated timeline still ends with its fault.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// Buffer holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Events recorded so far, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events dropped on the floor after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Record one event, or count it as dropped if the buffer is full and
    /// the event is not terminal.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity || ev.kind.is_terminal() {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Take the recorded events, leaving the buffer empty.
    pub fn take(&mut self) -> (Vec<TraceEvent>, u64) {
        (
            std::mem::take(&mut self.events),
            std::mem::take(&mut self.dropped),
        )
    }
}

/// How far Perfetto draws an instant event's marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// A full-height line across every process (`"s":"g"`).
    Global,
    /// A tick on the event's own thread row (`"s":"t"`).
    Thread,
}

/// One Chrome-trace timeline on the device cycle clock: processes
/// (`pid`) and threads (`tid`) carrying slices, instants and counters.
///
/// Every trace this workspace exports — a device's event log, a whole
/// [`crate::GpuNode`], and the serving layer's host+device view — is
/// built by pushing into a `Timeline`, and [`Timeline::finish`] is the
/// only writer of the trace document. Timestamps are given in device
/// cycles and converted to the format's microseconds at the clock the
/// timeline was created with. Events are written in push order, so a
/// fixed event sequence always renders to the same bytes.
///
/// Event arguments are `(key, value)` pairs whose value is already a
/// JSON literal (a number, `true`/`false`, or a string from
/// [`crate::json::quoted`]).
#[derive(Debug, Clone)]
pub struct Timeline {
    clock_ghz: f64,
    body: String,
}

impl Timeline {
    /// An empty timeline at `clock_ghz`. A non-positive clock (a report
    /// that never recorded one) renders at 1 GHz so timestamps stay finite.
    pub fn new(clock_ghz: f64) -> Self {
        Timeline {
            clock_ghz: if clock_ghz > 0.0 { clock_ghz } else { 1.0 },
            body: String::new(),
        }
    }

    /// Device cycles as Chrome-trace microseconds.
    fn us(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1000.0)
    }

    /// Name process `pid` (a metadata row).
    pub fn process(&mut self, pid: usize, name: &str) {
        let args = [("name", quoted(name))];
        self.event(pid, 0, "process_name", Phase::Meta, 0, &args);
    }

    /// Name thread `tid` of process `pid` (a metadata row).
    pub fn thread(&mut self, pid: usize, tid: u64, name: &str) {
        let args = [("name", quoted(name))];
        self.event(pid, tid, "thread_name", Phase::Meta, 0, &args);
    }

    /// A complete slice from cycle `start` lasting `cycles` (drawn at
    /// least 1 ns wide so zero-length work stays visible).
    pub fn slice(
        &mut self,
        pid: usize,
        tid: u64,
        name: &str,
        start: u64,
        cycles: u64,
        args: &[(&str, String)],
    ) {
        self.event(pid, tid, name, Phase::Slice(cycles), start, args);
    }

    /// An instant event at `cycle`.
    pub fn instant(
        &mut self,
        pid: usize,
        tid: u64,
        name: &str,
        cycle: u64,
        scope: Scope,
        args: &[(&str, String)],
    ) {
        self.event(pid, tid, name, Phase::Instant(scope), cycle, args);
    }

    /// A counter sample at `cycle`; each argument is one series.
    pub fn counter(
        &mut self,
        pid: usize,
        tid: u64,
        name: &str,
        cycle: u64,
        args: &[(&str, String)],
    ) {
        self.event(pid, tid, name, Phase::Counter, cycle, args);
    }

    /// The complete Chrome-trace JSON document. Load it at
    /// <https://ui.perfetto.dev> or `chrome://tracing`.
    pub fn finish(self) -> String {
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
            self.body
        )
    }

    fn event(
        &mut self,
        pid: usize,
        tid: u64,
        name: &str,
        phase: Phase,
        cycle: u64,
        args: &[(&str, String)],
    ) {
        // The phase letter, and the field only that phase carries.
        let (ph, extra) = match phase {
            Phase::Meta => ('M', String::new()),
            Phase::Slice(cycles) => ('X', format!(",\"dur\":{}", num(self.us(cycles).max(0.001)))),
            Phase::Instant(Scope::Global) => ('i', ",\"s\":\"g\"".to_string()),
            Phase::Instant(Scope::Thread) => ('i', ",\"s\":\"t\"".to_string()),
            Phase::Counter => ('C', String::new()),
        };
        let ts = num(self.us(cycle));
        let s = &mut self.body;
        if !s.is_empty() {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}{extra}",
            escape(name),
        );
        if !args.is_empty() {
            s.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":{v}", escape(k));
            }
            s.push('}');
        }
        s.push('}');
    }
}

/// The Chrome-trace phase of one event, with what only that phase carries.
enum Phase {
    /// A metadata row (`"ph":"M"`).
    Meta,
    /// A complete slice lasting this many cycles (`"ph":"X"`).
    Slice(u64),
    /// An instant (`"ph":"i"`).
    Instant(Scope),
    /// A counter sample (`"ph":"C"`).
    Counter,
}

/// Render one device's event log into `tl` as process `pid`.
///
/// Track (tid) layout inside the process: tid 0 is the host (memcpy)
/// track, tid `1 + depth` holds kernels at CDP nesting `depth`, so parent
/// and child launches land on adjacent rows. Faults and watchdog fires are
/// global instant events.
fn chrome_trace_events(tl: &mut Timeline, pid: usize, process_name: &str, events: &[TraceEvent]) {
    tl.process(pid, process_name);
    tl.thread(pid, 0, "host (memcpy)");

    // Launch metadata and start cycles, keyed by grid handle.
    struct Open {
        name: String,
        depth: u32,
        ctas: u64,
        threads: u32,
        start: Option<u64>,
        launch_cycle: u64,
        stream: usize,
    }
    let mut open: Vec<(u64, Open)> = Vec::new();
    let find = |open: &mut Vec<(u64, Open)>, grid: u64| -> Option<usize> {
        open.iter().position(|(g, _)| *g == grid)
    };
    let mut max_depth = 0u32;

    for ev in events {
        match &ev.kind {
            TraceEventKind::KernelLaunch {
                grid,
                kernel,
                ctas,
                threads_per_cta,
                stream,
            } => {
                open.push((
                    *grid,
                    Open {
                        name: kernel.clone(),
                        depth: 0,
                        ctas: *ctas,
                        threads: *threads_per_cta,
                        start: None,
                        launch_cycle: ev.cycle,
                        stream: *stream,
                    },
                ));
            }
            TraceEventKind::CdpEnqueue {
                grid,
                kernel,
                depth,
                ctas,
                threads_per_cta,
                stream,
                ..
            } => {
                max_depth = max_depth.max(*depth);
                open.push((
                    *grid,
                    Open {
                        name: kernel.clone(),
                        depth: *depth,
                        ctas: *ctas,
                        threads: *threads_per_cta,
                        start: None,
                        launch_cycle: ev.cycle,
                        stream: *stream,
                    },
                ));
            }
            TraceEventKind::KernelStart { grid, .. } => {
                if let Some(i) = find(&mut open, *grid) {
                    open[i].1.start = Some(ev.cycle);
                }
            }
            TraceEventKind::KernelRetire { grid, .. } => {
                if let Some(i) = find(&mut open, *grid) {
                    let (g, o) = open.remove(i);
                    let start = o.start.unwrap_or(o.launch_cycle);
                    tl.slice(
                        pid,
                        1 + o.depth as u64,
                        &format!("{} #{g}", o.name),
                        start,
                        ev.cycle.saturating_sub(start),
                        &[
                            ("grid", format!("{g}")),
                            ("ctas", format!("{}", o.ctas)),
                            ("threads_per_cta", format!("{}", o.threads)),
                            ("depth", format!("{}", o.depth)),
                            ("stream", format!("{}", o.stream)),
                            ("launch_cycle", format!("{}", o.launch_cycle)),
                            ("retire_cycle", format!("{}", ev.cycle)),
                        ],
                    );
                }
            }
            TraceEventKind::CdpDrain { .. } => {}
            TraceEventKind::Memcpy { dir, bytes, cycles } => {
                tl.slice(
                    pid,
                    0,
                    &format!("memcpy_{dir}"),
                    ev.cycle,
                    *cycles,
                    &[("bytes", format!("{bytes}"))],
                );
            }
            TraceEventKind::CacheFill { partition, addr } => {
                tl.instant(
                    pid,
                    0,
                    "l2_fill",
                    ev.cycle,
                    Scope::Global,
                    &[
                        ("partition", format!("{partition}")),
                        ("addr", format!("{addr}")),
                    ],
                );
            }
            TraceEventKind::Fault {
                kind,
                kernel,
                stream,
            } => {
                tl.instant(
                    pid,
                    0,
                    &format!("FAULT: {kind}"),
                    ev.cycle,
                    Scope::Global,
                    &[("kernel", quoted(kernel)), ("stream", format!("{stream}"))],
                );
            }
            TraceEventKind::Deadlock {
                stalled_for,
                stream,
            } => {
                tl.instant(
                    pid,
                    0,
                    "DEADLOCK (watchdog)",
                    ev.cycle,
                    Scope::Global,
                    &[
                        ("stalled_for", format!("{stalled_for}")),
                        ("stream", format!("{stream}")),
                    ],
                );
            }
        }
    }

    // A grid still open at the end of the log (fault/deadlock killed it)
    // renders as an instant so the timeline shows where it got to.
    for (g, o) in open {
        tl.instant(
            pid,
            1 + o.depth as u64,
            &format!("{} #{g} (unfinished)", o.name),
            o.start.unwrap_or(o.launch_cycle),
            Scope::Global,
            &[("grid", format!("{g}"))],
        );
    }

    for depth in 0..=max_depth {
        let origin = if depth == 0 { "host" } else { "CDP" };
        tl.thread(
            pid,
            1 + depth as u64,
            &format!("kernels depth {depth} ({origin})"),
        );
    }
}

/// Render one or more `(label, events)` logs as a complete Chrome-trace
/// JSON document (one Perfetto "process" per log, pid = log index). Load
/// the result at <https://ui.perfetto.dev> or `chrome://tracing`.
pub fn chrome_trace_json(logs: &[(String, &[TraceEvent])], clock_ghz: f64) -> String {
    let mut tl = Timeline::new(clock_ghz);
    for (pid, (label, log)) in logs.iter().enumerate() {
        chrome_trace_events(&mut tl, pid, label, log);
    }
    tl.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn ev(cycle: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { cycle, kind }
    }

    #[test]
    fn buffer_caps_and_keeps_terminal_events() {
        let mut b = TraceBuffer::new(2);
        for i in 0..5 {
            b.push(ev(i, TraceEventKind::KernelStart { grid: i, stream: 0 }));
        }
        b.push(ev(
            9,
            TraceEventKind::Deadlock {
                stalled_for: 100,
                stream: 0,
            },
        ));
        assert_eq!(b.events().len(), 3);
        assert_eq!(b.dropped(), 3);
        assert!(b.events().last().expect("non-empty").kind.is_terminal());
    }

    #[test]
    fn event_json_round_trips() {
        let e = ev(
            77,
            TraceEventKind::CdpEnqueue {
                grid: 3,
                kernel: "child \"k\"".to_string(),
                parent: 1,
                depth: 1,
                ctas: 2,
                threads_per_cta: 32,
                stream: 4,
            },
        );
        let v = Json::parse(&e.to_json()).expect("well-formed");
        assert_eq!(v.get("cycle").and_then(Json::as_u64), Some(77));
        assert_eq!(v.get("event").and_then(Json::as_str), Some("cdp_enqueue"));
        assert_eq!(v.get("kernel").and_then(Json::as_str), Some("child \"k\""));
        assert_eq!(v.get("parent").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("stream").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn timeline_pins_every_event_shape_byte_for_byte() {
        let mut tl = Timeline::new(2.0);
        tl.thread(1, 3, "row \"a\"");
        tl.slice(1, 3, "k #1", 2000, 0, &[("grid", "1".to_string())]);
        tl.instant(1, 0, "fault", 4000, Scope::Global, &[]);
        tl.instant(0, 2, "reset", 500, Scope::Thread, &[("s", quoted("x"))]);
        tl.counter(0, 0, "queue_depth", 1000, &[("jobs", "7".to_string())]);
        assert_eq!(
            tl.finish(),
            concat!(
                r#"{"displayTimeUnit":"ms","traceEvents":["#,
                r#"{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":3,"args":{"name":"row \"a\""}},"#,
                r#"{"name":"k #1","ph":"X","ts":1,"pid":1,"tid":3,"dur":0.001,"args":{"grid":1}},"#,
                r#"{"name":"fault","ph":"i","ts":2,"pid":1,"tid":0,"s":"g"},"#,
                r#"{"name":"reset","ph":"i","ts":0.25,"pid":0,"tid":2,"s":"t","args":{"s":"x"}},"#,
                r#"{"name":"queue_depth","ph":"C","ts":0.5,"pid":0,"tid":0,"args":{"jobs":7}}"#,
                "]}"
            )
        );
        // A clock that was never recorded renders at 1 GHz, and an empty
        // timeline is still a well-formed document.
        let mut tl = Timeline::new(0.0);
        tl.process(0, "p");
        tl.counter(0, 0, "c", 1000, &[]);
        assert_eq!(
            tl.finish(),
            concat!(
                r#"{"displayTimeUnit":"ms","traceEvents":["#,
                r#"{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"p"}},"#,
                r#"{"name":"c","ph":"C","ts":1,"pid":0,"tid":0}]}"#
            )
        );
        assert!(Json::parse(&chrome_trace_json(&[], 1.5)).is_ok());
    }

    #[test]
    fn chrome_trace_pairs_launch_and_retire() {
        let log = vec![
            ev(
                0,
                TraceEventKind::KernelLaunch {
                    grid: 1,
                    kernel: "k".to_string(),
                    ctas: 4,
                    threads_per_cta: 64,
                    stream: 0,
                },
            ),
            ev(100, TraceEventKind::KernelStart { grid: 1, stream: 0 }),
            ev(
                150,
                TraceEventKind::Memcpy {
                    dir: CopyDir::H2D,
                    bytes: 64,
                    cycles: 10,
                },
            ),
            ev(900, TraceEventKind::KernelRetire { grid: 1, stream: 0 }),
        ];
        let json = chrome_trace_json(&[("dev".to_string(), log.as_slice())], 1.0);
        let v = Json::parse(&json).expect("well-formed chrome trace");
        let evs = v
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        let kernel = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("k #1"))
            .expect("kernel slice present");
        assert_eq!(kernel.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(kernel.get("ts").and_then(Json::as_f64), Some(0.1));
        assert_eq!(kernel.get("dur").and_then(Json::as_f64), Some(0.8));
        assert!(evs
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("memcpy_h2d")));
    }

    #[test]
    fn chrome_trace_marks_unfinished_grids_and_faults() {
        let log = vec![
            ev(
                0,
                TraceEventKind::KernelLaunch {
                    grid: 1,
                    kernel: "bad".to_string(),
                    ctas: 1,
                    threads_per_cta: 32,
                    stream: 2,
                },
            ),
            ev(10, TraceEventKind::KernelStart { grid: 1, stream: 2 }),
            ev(
                50,
                TraceEventKind::Fault {
                    kind: ggpu_isa::FaultKind::IllegalAddress,
                    kernel: "bad".to_string(),
                    stream: 2,
                },
            ),
        ];
        let json = chrome_trace_json(&[("dev".to_string(), log.as_slice())], 1.5);
        let v = Json::parse(&json).expect("well-formed");
        let evs = v.get("traceEvents").and_then(Json::as_arr).expect("arr");
        assert!(evs.iter().any(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("FAULT:"))
        }));
        assert!(evs.iter().any(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.contains("unfinished"))
        }));
    }
}
