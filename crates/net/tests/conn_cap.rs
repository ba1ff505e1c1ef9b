//! Pins the connection-cap contract at the wire: with the default cap
//! of 64 connections held open, connection 65 is turned away with
//! `mrnet 1 busy` (surfacing as [`NetError::Busy`]) and counted in
//! `net.connections_refused`, while connection 64 — the last one inside the
//! cap — still gets a real `Ack` for its request. The cap sheds load;
//! it never degrades the connections it already admitted.

use mobirescue_core::scenario::ScenarioConfig;
use mobirescue_net::{Frame, NetClient, NetConfig, NetError, NetServer};
use mobirescue_serve::{Clock, DispatchService, ModelRegistry, ServeConfig, SimClock};
use mobirescue_sim::SimConfig;
use std::sync::Arc;

#[test]
fn connection_65_gets_busy_while_connection_64_still_acks() {
    let scenario = Arc::new(ScenarioConfig::small().florence().build(11));
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = 256;
    let clock: Arc<SimClock> = Arc::new(SimClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));
    let service = Arc::new(
        DispatchService::start(
            scenario,
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
            registry,
        )
        .expect("service starts"),
    );
    let obs = Arc::clone(service.obs());

    let net_cfg = NetConfig::new("127.0.0.1:0");
    assert_eq!(
        net_cfg.max_connections, 64,
        "the default cap this test pins"
    );
    let cap = net_cfg.max_connections;
    let mut server = NetServer::start(
        Arc::clone(&service),
        Arc::clone(&clock) as Arc<dyn Clock>,
        net_cfg,
    )
    .expect("listener binds on localhost");
    let addr = server.local_addr();

    // Fill the cap. Connecting sequentially means each handshake has
    // completed — and its handler counted itself active — before the
    // next SYN, so connection 65 deterministically sees a full house.
    let mut held: Vec<NetClient> = Vec::with_capacity(cap);
    for i in 0..cap {
        held.push(
            NetClient::connect(addr)
                .unwrap_or_else(|e| panic!("connection {} of {cap} must be admitted: {e}", i + 1)),
        );
    }

    // Connection 65: refused with the typed busy handshake.
    match NetClient::connect(addr) {
        Err(NetError::Busy) => {}
        Err(other) => panic!("connection {} must be Busy, got {other}", cap + 1),
        Ok(_) => panic!("connection {} must be refused at the cap", cap + 1),
    }
    assert_eq!(
        obs.counter("net.connections_refused").value(),
        1,
        "the refusal lands in net.connections_refused"
    );

    // Connection 64 — admitted, still first-class: its request is ACKed.
    let last = held.last_mut().expect("cap connections are held");
    let reply = last
        .request(9001, 0, 10, 0)
        .expect("request round-trips on an admitted connection");
    assert_eq!(reply, Frame::Ack { id: 9001 }, "connection 64 still ACKs");

    // Freeing one slot readmits: the cap is a live limit, not a latch.
    drop(held.pop());
    let mut readmitted = loop {
        match NetClient::connect(addr) {
            Ok(c) => break c,
            Err(NetError::Busy) => std::thread::yield_now(),
            Err(other) => panic!("readmission after a close failed: {other}"),
        }
    };
    let reply = readmitted
        .request(9002, 1, 20, 1)
        .expect("readmitted connection serves requests");
    assert_eq!(reply, Frame::Ack { id: 9002 });

    drop(readmitted);
    drop(held);
    server.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}
