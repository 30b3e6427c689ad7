//! Typed requests and responses of the explanation service.

use causality_core::explain::Explanation;
use causality_core::ranking::Method;
use causality_core::CoreError;
use causality_engine::{ConjunctiveQuery, Value};
use std::fmt;
use std::sync::mpsc::Receiver;
use std::time::Duration;

/// What kind of explanation a request asks for.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExplainKind {
    /// Why is the answer in the result? (Def. 2.1 causes, Fig. 2b ranking.)
    WhySo,
    /// Why is the answer *not* in the result? (Sect. 2's Why-No setting.)
    WhyNo,
    /// Like [`ExplainKind::WhySo`], truncated to the `k` causes with the
    /// highest responsibility — the "rank the candidate causes" workload
    /// of Sect. 1 when only the top of the Fig. 2b table is displayed.
    RankTopK(usize),
}

/// One explanation request: a (non-Boolean) query and an answer tuple.
///
/// The request is evaluated against the snapshot that is current when a
/// worker picks it up; the response reports that snapshot's version.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ExplainRequest {
    /// Which question is asked.
    pub kind: ExplainKind,
    /// The query (head variables bound by `answer`).
    pub query: ConjunctiveQuery,
    /// The (non-)answer to explain.
    pub answer: Vec<Value>,
    /// Responsibility algorithm selection.
    pub method: Method,
}

impl ExplainRequest {
    /// A Why-So request with automatic algorithm choice.
    pub fn why_so(query: ConjunctiveQuery, answer: impl Into<Vec<Value>>) -> Self {
        ExplainRequest {
            kind: ExplainKind::WhySo,
            query,
            answer: answer.into(),
            method: Method::Auto,
        }
    }

    /// A Why-No request.
    pub fn why_no(query: ConjunctiveQuery, answer: impl Into<Vec<Value>>) -> Self {
        ExplainRequest {
            kind: ExplainKind::WhyNo,
            query,
            answer: answer.into(),
            method: Method::Auto,
        }
    }

    /// A rank-by-responsibility request keeping the top `k` causes.
    pub fn rank_top_k(query: ConjunctiveQuery, answer: impl Into<Vec<Value>>, k: usize) -> Self {
        ExplainRequest {
            kind: ExplainKind::RankTopK(k),
            query,
            answer: answer.into(),
            method: Method::Auto,
        }
    }

    /// Select the responsibility algorithm.
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }
}

impl ExplainKind {
    /// Stable label used as the `kind` attribute of request traces.
    pub fn label(self) -> &'static str {
        match self {
            ExplainKind::WhySo => "why_so",
            ExplainKind::WhyNo => "why_no",
            ExplainKind::RankTopK(_) => "rank_top_k",
        }
    }
}

/// A served explanation with its provenance metadata.
#[derive(Clone, Debug)]
pub struct ExplainResponse {
    /// The explanation, or the error the computation hit.
    pub result: Result<Explanation, ServiceError>,
    /// Version of the snapshot the request was evaluated against.
    pub snapshot_version: u64,
    /// Whether the explanation came from the responsibility cache.
    pub cache_hit: bool,
}

impl ExplainResponse {
    /// The explanation, panicking on a failed request (test convenience).
    pub fn expect_explanation(self) -> Explanation {
        match self.result {
            Ok(e) => e,
            Err(e) => panic!("explain request failed: {e}"),
        }
    }
}

/// Errors surfaced by the service.
#[derive(Clone, Debug)]
pub enum ServiceError {
    /// The service has shut down (or its worker died) before responding.
    Disconnected,
    /// The bounded request queue is full. Nothing produces this any
    /// more: a full queue is an [`ServiceError::Overloaded`] reject. The
    /// variant stays while perfbench still matches it.
    QueueFull,
    /// Admission control rejected the request: the target shard's queue
    /// depth had reached its configured limit. The reject is returned to
    /// the caller immediately (never silently dropped) so an open-loop
    /// client can back off or shed load.
    Overloaded {
        /// How long the caller should wait before retrying, derived from
        /// the shard's queue depth and its observed drain rate (PR 9).
        retry_after: Duration,
    },
    /// The tenant's circuit breaker is open: this tenant's recent
    /// requests kept failing, so the tier sheds its traffic before it
    /// consumes worker time. Retry after the hint, when the breaker
    /// admits a half-open probe.
    CircuitOpen {
        /// How long until the breaker transitions to half-open.
        retry_after: Duration,
    },
    /// The request's deadline budget expired before a worker started
    /// computing it; the job was discarded at the queue instead of
    /// occupying a worker past its budget.
    DeadlineExceeded,
    /// Waiting for a response timed out; the computation may still finish.
    Timeout,
    /// The request is malformed (answer arity or constants disagree with
    /// the query head).
    InvalidRequest(String),
    /// The underlying cause/responsibility computation failed.
    Core(CoreError),
    /// The computation panicked. The worker caught the panic, recovered,
    /// and kept serving — only this request is affected.
    Panicked(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Disconnected => write!(f, "explanation service is shut down"),
            ServiceError::QueueFull => write!(f, "request queue is full"),
            ServiceError::Overloaded { retry_after } => {
                write!(
                    f,
                    "admission control rejected the request: shard overloaded \
                     (retry after {retry_after:?})"
                )
            }
            ServiceError::CircuitOpen { retry_after } => {
                write!(
                    f,
                    "tenant circuit breaker is open (retry after {retry_after:?})"
                )
            }
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline budget expired before the request was served")
            }
            ServiceError::Timeout => write!(f, "timed out waiting for a response"),
            ServiceError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            ServiceError::Core(e) => write!(f, "{e}"),
            ServiceError::Panicked(why) => {
                write!(f, "explanation computation panicked: {why}")
            }
        }
    }
}

impl ServiceError {
    /// Stable label used as the `outcome` attribute of request traces.
    pub fn outcome_label(&self) -> &'static str {
        match self {
            ServiceError::Disconnected => "disconnected",
            ServiceError::QueueFull => "queue_full",
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::CircuitOpen { .. } => "circuit_open",
            ServiceError::DeadlineExceeded => "deadline_exceeded",
            ServiceError::Timeout => "timeout",
            ServiceError::InvalidRequest(_) => "invalid_request",
            ServiceError::Core(_) => "error",
            ServiceError::Panicked(_) => "panicked",
        }
    }

    /// Whether a retry of the same request may legitimately succeed.
    ///
    /// Retryable errors are *transient tier states* — an overloaded
    /// shard, an open breaker, a response-wait timeout, or a
    /// panicked worker (the shard recovered; the panic poisoned one
    /// request, not the data). Terminal errors are properties of the
    /// request itself ([`ServiceError::InvalidRequest`],
    /// [`ServiceError::Core`]), of its expired budget
    /// ([`ServiceError::DeadlineExceeded`]), or of a shut-down tier
    /// ([`ServiceError::Disconnected`]); retrying those burns worker
    /// time to reproduce the same answer.
    pub fn is_retryable(&self) -> bool {
        match self {
            ServiceError::QueueFull
            | ServiceError::Overloaded { .. }
            | ServiceError::CircuitOpen { .. }
            | ServiceError::Timeout
            | ServiceError::Panicked(_) => true,
            ServiceError::Disconnected
            | ServiceError::DeadlineExceeded
            | ServiceError::InvalidRequest(_)
            | ServiceError::Core(_) => false,
        }
    }

    /// The back-off hint carried by retryable rejects, if any.
    pub fn retry_after_hint(&self) -> Option<Duration> {
        match self {
            ServiceError::Overloaded { retry_after }
            | ServiceError::CircuitOpen { retry_after } => Some(*retry_after),
            _ => None,
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

/// Handle to one in-flight request; resolves to an [`ExplainResponse`].
#[derive(Debug)]
pub struct PendingExplain {
    pub(crate) rx: Receiver<ExplainResponse>,
}

impl PendingExplain {
    /// Block until the response arrives.
    pub fn wait(self) -> Result<ExplainResponse, ServiceError> {
        self.rx.recv().map_err(|_| ServiceError::Disconnected)
    }

    /// Block up to `timeout` for the response.
    pub fn wait_timeout(self, timeout: Duration) -> Result<ExplainResponse, ServiceError> {
        use std::sync::mpsc::RecvTimeoutError;
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => ServiceError::Timeout,
            RecvTimeoutError::Disconnected => ServiceError::Disconnected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind_and_method() {
        let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
        let r = ExplainRequest::why_so(q.clone(), vec![Value::str("a2")]);
        assert_eq!(r.kind, ExplainKind::WhySo);
        assert_eq!(r.method, Method::Auto);
        let r =
            ExplainRequest::why_no(q.clone(), vec![Value::str("a2")]).with_method(Method::Exact);
        assert_eq!(r.kind, ExplainKind::WhyNo);
        assert_eq!(r.method, Method::Exact);
        let r = ExplainRequest::rank_top_k(q, vec![Value::str("a2")], 3);
        assert_eq!(r.kind, ExplainKind::RankTopK(3));
    }

    #[test]
    fn requests_are_hashable_cache_keys() {
        use std::collections::HashSet;
        let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
        let mut set = HashSet::new();
        set.insert(ExplainRequest::why_so(q.clone(), vec![Value::str("a2")]));
        set.insert(ExplainRequest::why_so(q.clone(), vec![Value::str("a2")]));
        set.insert(ExplainRequest::why_no(q, vec![Value::str("a2")]));
        assert_eq!(set.len(), 2, "identical requests collapse");
    }

    #[test]
    fn error_display() {
        assert!(ServiceError::Disconnected.to_string().contains("shut down"));
        assert!(ServiceError::QueueFull.to_string().contains("full"));
        let overloaded = ServiceError::Overloaded {
            retry_after: Duration::from_millis(7),
        };
        assert!(overloaded.to_string().contains("overloaded"));
        assert!(overloaded.to_string().contains("7ms"));
        let open = ServiceError::CircuitOpen {
            retry_after: Duration::from_millis(40),
        };
        assert!(open.to_string().contains("breaker"));
        assert!(ServiceError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(ServiceError::Timeout.to_string().contains("timed out"));
    }

    #[test]
    fn retryable_taxonomy_splits_transient_from_terminal() {
        let retryable: [ServiceError; 5] = [
            ServiceError::QueueFull,
            ServiceError::Overloaded {
                retry_after: Duration::from_millis(1),
            },
            ServiceError::CircuitOpen {
                retry_after: Duration::from_millis(1),
            },
            ServiceError::Timeout,
            ServiceError::Panicked("boom".into()),
        ];
        for e in &retryable {
            assert!(e.is_retryable(), "{e} should be retryable");
        }
        let terminal: [ServiceError; 3] = [
            ServiceError::Disconnected,
            ServiceError::DeadlineExceeded,
            ServiceError::InvalidRequest("arity".into()),
        ];
        for e in &terminal {
            assert!(!e.is_retryable(), "{e} should be terminal");
        }
    }

    #[test]
    fn retry_after_hint_only_on_shed_errors() {
        let overloaded = ServiceError::Overloaded {
            retry_after: Duration::from_millis(9),
        };
        assert_eq!(
            overloaded.retry_after_hint(),
            Some(Duration::from_millis(9))
        );
        assert_eq!(ServiceError::Timeout.retry_after_hint(), None);
    }
}
