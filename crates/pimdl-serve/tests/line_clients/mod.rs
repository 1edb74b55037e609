//! Concurrent line-protocol clients shared by the real-socket suites
//! (`loopback.rs` and `serving.rs`).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

use pimdl_serve::codec::{ErrorKind, ServerMsg};
use pimdl_serve::{LineClient, Runtime};
use pimdl_tensor::rng::DataRng;

/// Clock speedup putting one single-request service at ~0.5 ms of real
/// time.
pub fn speedup(rt: &Runtime) -> f64 {
    let t1 = rt.service_model().batch_service_s(1).unwrap();
    (t1 / 0.5e-3).max(1.0)
}

/// `clients` threads each connect to the server at `addr`, send
/// `per_client` queries back to back through [`LineClient`] and then read
/// every reply. Each reply must match its query's tag exactly once, a
/// result must carry the single-threaded oracle's checksum
/// ([`pimdl_serve::ReplicaModel::checksum_of`], computed client-side
/// before sending) flagged correct, and a refusal must be a rejection or a
/// shed. Returns the replies counted by kind: completed, rejected, shed.
pub fn query_concurrently(
    rt: &Arc<Runtime>,
    addr: SocketAddr,
    clients: usize,
    per_client: usize,
) -> [u64; 3] {
    let w = rt.replica().workload();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let rt = Arc::clone(rt);
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).unwrap();
                let mut rng = DataRng::new(0xC11E57 + c as u64);
                let mut oracle = HashMap::new();
                for k in 0..per_client {
                    let indices: Vec<u16> =
                        (0..w.n * w.cb).map(|_| rng.index(w.ct) as u16).collect();
                    let tag = format!("c{c}-{k}");
                    client.send(&tag, &indices).unwrap();
                    oracle.insert(tag, rt.replica().checksum_of(&indices).unwrap().to_bits());
                }
                let mut kinds = [0u64; 3];
                for _ in 0..per_client {
                    let msg = client.recv().unwrap();
                    let (ServerMsg::Result { tag, .. } | ServerMsg::Error { tag, .. }) = &msg;
                    let want = oracle.remove(tag);
                    assert!(want.is_some(), "{tag}: unasked or repeated");
                    let kind = match &msg {
                        ServerMsg::Result {
                            correct,
                            checksum_bits,
                            ..
                        } => {
                            assert_eq!(want, Some(*checksum_bits), "{tag}: wrong checksum");
                            assert!(*correct, "{tag}: PIM execution mismatched the host");
                            0
                        }
                        ServerMsg::Error { kind, .. } => match kind {
                            ErrorKind::Rejected => 1,
                            ErrorKind::Deadline => 2,
                            _ => panic!("{tag}: unexpected {kind:?}"),
                        },
                    };
                    kinds[kind] += 1;
                }
                kinds
            })
        })
        .collect();

    let mut kinds = [0u64; 3];
    for t in threads {
        for (sum, n) in kinds.iter_mut().zip(t.join().unwrap()) {
            *sum += n;
        }
    }
    kinds
}
