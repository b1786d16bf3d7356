//! An admission limiter over [`FleetService::handle`]: [`Dispatcher::submit`]
//! waits for one of a fixed number of slots, then runs the request on the
//! calling thread and returns a resolved [`Ticket`]. The fan-out inside a
//! request runs on the service's own worker pool. A request that panics
//! answers [`Response::Error`] and frees its slot.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::service::{FleetService, Request, Response};

/// A handled request's response; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    response: Response,
}

impl Ticket {
    /// The request's response (already computed by [`Dispatcher::submit`]).
    #[must_use]
    pub fn wait(self) -> Response {
        self.response
    }
}

/// Runs at most `workers` requests at a time against one [`FleetService`].
pub struct Dispatcher {
    service: Arc<FleetService>,
    /// Slots not taken by a running request.
    free: Mutex<usize>,
    freed: Condvar,
}

impl Dispatcher {
    /// A limiter with `workers` slots (at least one) over the service.
    #[must_use]
    pub fn new(service: Arc<FleetService>, workers: usize) -> Self {
        Self {
            service,
            free: Mutex::new(workers.max(1)),
            freed: Condvar::new(),
        }
    }

    /// Handles a request on the calling thread once a slot is free,
    /// blocking while all slots are busy.
    #[must_use]
    pub fn submit(&self, request: Request) -> Ticket {
        let free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        let free = self.freed.wait_while(free, |free| *free == 0);
        let mut free = free.unwrap_or_else(PoisonError::into_inner);
        *free -= 1;
        drop(free);
        let response = catch_unwind(AssertUnwindSafe(|| self.service.handle(request)))
            .unwrap_or_else(|_| Response::Error {
                message: "the request handler panicked".to_string(),
            });
        *self.free.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.freed.notify_one();
        Ticket { response }
    }

    /// The service behind the limiter.
    #[must_use]
    pub fn service(&self) -> &Arc<FleetService> {
        &self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{DeviceReport, FleetConfig};
    use crate::shard::ShardKey;
    use std::sync::Barrier;
    use twm_core::scheme::SchemeId;
    use twm_coverage::Strategy;
    use twm_march::algorithms::march_c_minus;
    use twm_mem::MemoryConfig;
    use twm_repair::SignatureTrail;

    fn serial_service() -> Arc<FleetService> {
        Arc::new(
            FleetService::new(FleetConfig {
                strategy: Strategy::Serial,
                ..FleetConfig::default()
            })
            .unwrap(),
        )
    }

    #[test]
    fn dispatches_every_request() {
        let dispatcher = Dispatcher::new(serial_service(), 2);
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| dispatcher.submit(Request::ListShards))
            .collect();
        for ticket in tickets {
            assert_eq!(ticket.wait(), Response::Shards(Vec::new()));
        }
    }

    #[test]
    fn concurrent_callers_share_one_slot_and_get_their_own_responses() {
        let dispatcher = Dispatcher::new(serial_service(), 1);
        let config = MemoryConfig::new(4, 4).unwrap();
        let shard = ShardKey::new(config, SchemeId::TwmTa, &march_c_minus());
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            for caller in 0..8 {
                let (dispatcher, start) = (&dispatcher, &start);
                scope.spawn(move || {
                    let device = format!("device-{caller}");
                    let request = Request::DiagnoseBatch {
                        reports: vec![DeviceReport {
                            device: device.clone(),
                            shard,
                            trail: SignatureTrail::new(Vec::new()),
                            spares: 0,
                        }],
                    };
                    start.wait(); // every caller contends for the one slot
                    let Response::Batch(batch) = dispatcher.submit(request).wait() else {
                        panic!("a batch request answers a batch");
                    };
                    assert_eq!(batch.outcomes.len(), 1);
                    assert_eq!(batch.outcomes[0].device, device);
                });
            }
        });
    }
}
