//! Open-loop load generator: requests fall due on a fixed schedule and
//! are sent over a few persistent connections, one request in flight per
//! connection. A request that falls due while every connection is busy
//! waits, and its latency counts from when it was due. Nothing is
//! retried: an error or a missed deadline is a failed request.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request/reply exchange over an open connection.
pub trait Conn {
    /// Sends `body` and returns the reply's status and body.
    fn call(&mut self, body: &[u8]) -> io::Result<(u16, Vec<u8>)>;
}

/// What happened to one scheduled request. Times are seconds after the
/// schedule's start.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// When the request fell due.
    pub due_s: f64,
    /// When it was sent; `None` if it never was.
    pub sent_s: Option<f64>,
    /// When its reply arrived; `None` on error or no reply.
    pub done_s: Option<f64>,
    /// Reply status; 0 without a reply.
    pub status: u16,
    /// Reply body.
    pub body: Vec<u8>,
    /// How late the generator sent a request whose connection was free
    /// at its due time (sleep overshoot); `None` if it had to wait.
    pub lag_s: Option<f64>,
}

impl Outcome {
    /// Whether the request succeeded (a 200 reply).
    pub fn ok(&self) -> bool {
        self.status == 200 && self.done_s.is_some()
    }

    /// Completion time of a succeeded request.
    pub fn done_ok(&self) -> Option<f64> {
        self.done_s.filter(|_| self.ok())
    }
}

/// Sends `bodies[i]` at `due_s[i]` (seconds after the start, ascending)
/// over `conns` connections made by `connect`. Requests still unsent
/// `grace` after the last due time are failed without being sent.
/// Returns one outcome per request, in schedule order.
pub fn run<C: Conn + Send>(
    due_s: &[f64],
    bodies: &[Vec<u8>],
    conns: usize,
    grace: Duration,
    connect: &(dyn Fn() -> io::Result<C> + Sync),
) -> Vec<Outcome> {
    assert_eq!(due_s.len(), bodies.len(), "one body per due time");
    // Open the connections before the clock starts.
    let opened: Vec<Option<C>> = (0..conns).map(|_| connect().ok()).collect();
    let start = Instant::now() + Duration::from_millis(5);
    let last_due = due_s.last().copied().unwrap_or(0.0);
    let cutoff = start + Duration::from_secs_f64(last_due) + grace;
    let next = AtomicUsize::new(0);
    let out = Mutex::new(vec![Outcome::default(); due_s.len()]);
    std::thread::scope(|s| {
        for conn in opened {
            let (next, out) = (&next, &out);
            s.spawn(move || {
                let mut conn = conn;
                let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= due_s.len() {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(due_s[i]);
                    let mut o = Outcome {
                        due_s: due_s[i],
                        ..Outcome::default()
                    };
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                        o.lag_s = Some(Instant::now().saturating_duration_since(due).as_secs_f64());
                    }
                    if Instant::now() < cutoff {
                        if conn.is_none() {
                            conn = connect().ok();
                        }
                        if let Some(c) = conn.as_mut() {
                            o.sent_s = Some(at(Instant::now()));
                            match c.call(&bodies[i]) {
                                Ok((status, body)) => {
                                    o.done_s = Some(at(Instant::now()));
                                    o.status = status;
                                    o.body = body;
                                }
                                Err(_) => conn = None,
                            }
                        }
                    }
                    out.lock().expect("no generator thread panics")[i] = o;
                }
            });
        }
    });
    out.into_inner().expect("no generator thread panics")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{due_latency_s, Summary};

    /// A server stub that stalls on its first request.
    struct Stalling {
        calls: usize,
        stall: Duration,
        service: Duration,
    }

    impl Conn for Stalling {
        fn call(&mut self, _body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
            self.calls += 1;
            std::thread::sleep(if self.calls == 1 {
                self.stall
            } else {
                self.service
            });
            Ok((200, b"{}".to_vec()))
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_behind_a_stall() {
        let due: Vec<f64> = (0..12).map(|i| i as f64 * 0.005).collect();
        let bodies = vec![Vec::new(); due.len()];
        let connect = || {
            Ok(Stalling {
                calls: 0,
                stall: Duration::from_millis(60),
                service: Duration::from_millis(1),
            })
        };
        let out = run(&due, &bodies, 1, Duration::from_secs(5), &connect);
        assert!(out.iter().all(Outcome::ok));
        // Request 1 fell due at 5 ms and could only be sent after the
        // 60 ms stall: its due-time latency carries the wait, while its
        // own exchange took about a millisecond.
        let r1 = &out[1];
        let due_lat = due_latency_s(r1.due_s, r1.done_s);
        let send_lat = r1.done_s.unwrap() - r1.sent_s.unwrap();
        assert!(due_lat >= 0.055, "due-time latency {due_lat}");
        assert!(send_lat < 0.040, "send latency {send_lat}");
        // It waited, so it says nothing about generator lateness.
        assert!(r1.lag_s.is_none());
        // Every request due during the stall carries part of it.
        for o in &out[1..10] {
            let lat = due_latency_s(o.due_s, o.done_s);
            assert!(
                lat >= 0.060 - o.due_s - 1e-3,
                "due {} latency {lat}",
                o.due_s
            );
        }
        let lat: Vec<f64> = out
            .iter()
            .map(|o| due_latency_s(o.due_s, o.done_s))
            .collect();
        assert!(Summary::of(&lat).p50 > 0.02);
    }

    struct Broken;

    impl Conn for Broken {
        fn call(&mut self, _body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
            Err(io::Error::new(io::ErrorKind::ConnectionReset, "reset"))
        }
    }

    #[test]
    fn errors_and_unsent_requests_fail_without_retries() {
        let due = vec![0.0, 0.001, 0.002];
        let bodies = vec![Vec::new(); 3];
        let out = run(&due, &bodies, 2, Duration::from_secs(1), &|| Ok(Broken));
        assert!(out.iter().all(|o| !o.ok() && o.sent_s.is_some()));
        // With no grace left, nothing due later is sent at all.
        let due = vec![0.0, 0.050];
        let bodies = vec![Vec::new(); 2];
        let connect = || {
            Ok(Stalling {
                calls: 0,
                stall: Duration::from_millis(100),
                service: Duration::from_millis(1),
            })
        };
        let out = run(&due, &bodies, 1, Duration::ZERO, &connect);
        assert!(out[0].ok());
        assert!(out[1].sent_s.is_none() && !out[1].ok());
    }
}
