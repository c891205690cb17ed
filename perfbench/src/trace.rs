//! Per-solve event capture for the traced pass.
//!
//! `coremax_obs` has one process-global sink, but batch workers solve
//! on several threads at once. [`PerSolveSink`] routes each event to a
//! fresh [`CollectorSink`] opened for the solve running on the emitting
//! thread, so the first core and the first incumbent of every solve
//! are timed from that solve's own start.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

use coremax_obs::{CollectorSink, Event, EventSink};

/// What the traced pass keeps of one solve's events: the time from
/// the solve's start to its first core and to its first incumbent,
/// each `None` when the event never came.
#[derive(Debug, Clone, Copy)]
pub struct SolveEvents {
    /// First `CoreExtracted` event.
    pub first_core: Option<Duration>,
    /// First `Incumbent` event.
    pub first_incumbent: Option<Duration>,
}

impl SolveEvents {
    fn of(collector: &CollectorSink) -> Self {
        let events = collector.events();
        let first =
            |want: fn(&Event) -> bool| events.iter().find(|(_, e)| want(e)).map(|&(t, _)| t);
        SolveEvents {
            first_core: first(|e| matches!(e, Event::CoreExtracted { .. })),
            first_incumbent: first(|e| matches!(e, Event::Incumbent { .. })),
        }
    }
}

/// Routes every event to the collector of the solve running on the
/// emitting thread.
#[derive(Default)]
pub struct PerSolveSink {
    open: Mutex<HashMap<ThreadId, Arc<CollectorSink>>>,
    done: Mutex<Vec<SolveEvents>>,
}

impl PerSolveSink {
    /// Marks the start of a solve on the calling thread, closing the
    /// thread's previous solve if one is open.
    pub fn begin(&self) {
        let fresh = Arc::new(CollectorSink::new());
        let previous = self
            .open
            .lock()
            .expect("sink map is never poisoned")
            .insert(thread::current().id(), fresh);
        if let Some(collector) = previous {
            self.close(&collector);
        }
    }

    /// Closes every open solve and returns all closed ones.
    pub fn finish(&self) -> Vec<SolveEvents> {
        let open: Vec<_> = self
            .open
            .lock()
            .expect("sink map is never poisoned")
            .drain()
            .map(|(_, c)| c)
            .collect();
        for collector in open {
            self.close(&collector);
        }
        std::mem::take(&mut *self.done.lock().expect("done list is never poisoned"))
    }

    fn close(&self, collector: &CollectorSink) {
        let events = SolveEvents::of(collector);
        self.done
            .lock()
            .expect("done list is never poisoned")
            .push(events);
    }
}

impl EventSink for PerSolveSink {
    fn on_event(&self, event: &Event) {
        let collector = self
            .open
            .lock()
            .expect("sink map is never poisoned")
            .get(&thread::current().id())
            .map(Arc::clone);
        if let Some(collector) = collector {
            collector.on_event(event);
        }
    }
}
