//! The request front end every memory model shares: the queue bound,
//! the arrival numbers, the issued requests and the completion buffer.
//!
//! A model asks [`RequestCore::admit`] to accept a request, keeps the
//! [`Queued`] record it gets back in its own scheduler queues, and
//! hands the record to [`RequestCore::issue`] with the cycle its data
//! phase ends. [`RequestCore::tick`] advances the clock and moves the
//! requests due by then into the completion buffer. A request is
//! issued before its data phase ends, so every due request completes
//! on exactly this cycle: a min-heap keyed by (completion cycle,
//! arrival) pops them in arrival order, as the [`MemoryModel`]
//! contract asks, and visits no request that is not due.
//!
//! [`MemoryModel`]: crate::model::MemoryModel

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::controller::{Completion, MemRequest};
use crate::error::EnqueueError;

/// An accepted request waiting in a model's scheduler.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    pub(crate) req: MemRequest,
    /// Cycle the request was accepted.
    pub(crate) enqueued_at: u64,
    /// Arrival number: breaks every tie in arrival order.
    pub(crate) arrival: u64,
}

/// An issued request, ordered so that the heap's top is the earliest
/// completion, and among those the earliest arrival.
#[derive(Debug)]
struct Issued {
    arrival: u64,
    completion: Completion,
}

impl Issued {
    fn key(&self) -> (u64, u64) {
        (self.completion.completed_at, self.arrival)
    }
}

impl PartialEq for Issued {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Issued {}

impl PartialOrd for Issued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Issued {
    /// Reversed: `BinaryHeap` is a max-heap, and the smallest key pops
    /// first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// The clock, the queue bound and the requests between acceptance and
/// completion of one memory model.
#[derive(Debug)]
pub(crate) struct RequestCore {
    capacity: usize,
    now: u64,
    /// Requests accepted and not yet issued.
    queued: usize,
    /// Requests accepted so far: the next arrival number.
    arrivals: u64,
    /// Issued requests waiting out their data phase.
    issued: BinaryHeap<Issued>,
    /// This cycle's completions, cleared by each [`tick`](Self::tick).
    done: Vec<Completion>,
}

impl RequestCore {
    /// A core at cycle 0 that holds at most `capacity` queued requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        RequestCore {
            capacity,
            now: 0,
            queued: 0,
            arrivals: 0,
            issued: BinaryHeap::new(),
            done: Vec::new(),
        }
    }

    /// Current memory-clock cycle.
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Requests accepted and not yet issued.
    pub(crate) fn queued(&self) -> usize {
        self.queued
    }

    /// `true` when no request is queued or issued.
    pub(crate) fn is_drained(&self) -> bool {
        self.queued == 0 && self.issued.is_empty()
    }

    /// Accepts `req` at the current cycle, or refuses it when the queue
    /// holds `capacity` requests (back-pressure).
    pub(crate) fn admit(&mut self, req: MemRequest) -> Result<Queued, EnqueueError> {
        if self.queued >= self.capacity {
            return Err(EnqueueError {
                id: req.id,
                capacity: self.capacity,
            });
        }
        let queued = Queued {
            req,
            enqueued_at: self.now,
            arrival: self.arrivals,
        };
        self.arrivals += 1;
        self.queued += 1;
        Ok(queued)
    }

    /// Issues a request [`admit`](Self::admit) accepted; it completes
    /// at `done_at`, a later cycle.
    pub(crate) fn issue(&mut self, q: Queued, done_at: u64) {
        debug_assert!(done_at > self.now, "a request completes after it issues");
        self.queued -= 1;
        self.issued.push(Issued {
            arrival: q.arrival,
            completion: Completion {
                id: q.req.id,
                kind: q.req.kind,
                addr: q.req.addr,
                enqueued_at: q.enqueued_at,
                completed_at: done_at,
            },
        });
    }

    /// Advances one cycle and moves the requests due on it, in arrival
    /// order, into [`done`](Self::done). Returns the new cycle.
    pub(crate) fn tick(&mut self) -> u64 {
        self.now += 1;
        self.done.clear();
        while let Some(top) = self.issued.peek_mut() {
            if top.completion.completed_at > self.now {
                break;
            }
            self.done.push(PeekMut::pop(top).completion);
        }
        self.now
    }

    /// This cycle's completions, in arrival order.
    pub(crate) fn done(&self) -> &[Completion] {
        &self.done
    }
}
