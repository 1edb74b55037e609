//! Requests and their terminal outcomes.
//!
//! Every request the front end admits (or refuses) ends in exactly one
//! [`Outcome`]; the runtime's conservation invariant — no request is ever
//! silently dropped — is checked against the ledger of
//! [`RequestRecord`]s a run produces.

/// One inference request: a LUT-NN query (an index matrix over the
/// replica's table) plus its deadline bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique, dense id (assigned in arrival order by the load generator).
    pub id: u64,
    /// Submission time (simulated seconds).
    pub arrival_s: f64,
    /// Absolute deadline (simulated seconds); `f64::INFINITY` means none.
    /// A request whose deadline passes before its batch is dispatched is
    /// shed with [`Outcome::DeadlineExceeded`]; once dispatched it runs to
    /// completion.
    pub deadline_s: f64,
    /// Row-major `n × CB` index matrix of the query (the replica's
    /// per-request [`pimdl_sim::LutWorkload`] shape).
    pub indices: Vec<u16>,
    /// Host-reference checksum of the query's output, used to verify the
    /// simulated PIM execution bit-for-bit. The line and HTTP fronts admit
    /// a request with NaN here, which no output equals, and the shard its
    /// batch runs on computes the reference just before the kernel; the
    /// fabric front and [`crate::ReplicaModel::make_request`] compute it
    /// when the request is built.
    pub expected_checksum: f64,
}

impl Request {
    /// Whether the deadline has passed at `now`.
    pub fn expired(&self, now: f64) -> bool {
        now > self.deadline_s
    }
}

/// Terminal state of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Served: dispatched in a batch and executed on a shard.
    Completed {
        /// End-to-end latency (completion − arrival), simulated seconds.
        latency_s: f64,
        /// Shard that executed the batch.
        shard: usize,
        /// Size of the batch the request rode in.
        batch_size: usize,
        /// Whether the simulated PIM output matched the host reference.
        correct: bool,
    },
    /// Load-shed at admission: the bounded queue was full.
    Rejected {
        /// Shed time (simulated seconds).
        at_s: f64,
    },
    /// Shed after admission: the deadline passed before dispatch.
    DeadlineExceeded {
        /// Shed time (simulated seconds).
        at_s: f64,
    },
}

impl Outcome {
    /// Whether the request was served.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }
}

/// One ledger entry: a request id, its arrival, and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Request id.
    pub id: u64,
    /// Submission time (simulated seconds).
    pub arrival_s: f64,
    /// Terminal outcome.
    pub outcome: Outcome,
}
