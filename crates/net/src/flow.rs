//! Flow synthesis: clean DNS lookups and HTTP GETs over a hop path, with
//! an on-path observer hook for middleboxes.
//!
//! The simulator builds the packet timeline a client-side capture would
//! show. Middleboxes (censors — implemented in `churnlab-censor`) register
//! as [`OnPathObserver`]s at an AS position along the path; they see every
//! *forward* (client → server) packet that reaches their AS, and may drop
//! it and/or inject packets back toward the client. Injected packets get
//! their remaining TTL computed from the injector's position — the
//! asymmetry the paper's TTL detector exploits — while the timeline places
//! them ahead of the genuine response — the race the DNS detector exploits.
//!
//! Injection mechanics mirror real-world censors: an injector cannot see
//! the server's initial sequence number directly (it only watches forward
//! packets), so — like the Great Firewall — it derives it from the ACK
//! field of the client's request.

use crate::capture::{Capture, Direction};
use crate::dns::DnsMessage;
use crate::hops::HopPath;
use crate::http::{HttpRequest, HttpResponse};
use crate::ip::Ipv4Packet;
#[cfg(test)]
use crate::ip::Payload;
use crate::tcp::{TcpFlags, TcpSegment};
use crate::udp::UdpDatagram;
use serde::{Deserialize, Serialize};

/// A packet injected by an on-path observer.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedPacket {
    /// Extra delay after the triggering packet reached the injector.
    pub delay_us: u64,
    /// TTL the injector stamps on the packet *at the injection point*; the
    /// simulator decrements it by the hop distance back to the client.
    pub initial_ttl: u8,
    /// The packet (src/dst/ports/seq as forged by the injector; the `ttl`
    /// field is overwritten on arrival).
    pub pkt: Ipv4Packet,
}

/// What an observer decides about one forward packet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObserverVerdict {
    /// Stop the packet here (it never reaches later ASes or the server).
    pub drop_forward: bool,
    /// Packets to send back toward the client.
    pub inject: Vec<InjectedPacket>,
}

impl ObserverVerdict {
    /// Let the packet through untouched.
    pub fn pass() -> Self {
        ObserverVerdict::default()
    }
}

/// A middlebox watching forward packets at a fixed AS position on a path.
pub trait OnPathObserver {
    /// Inspect a forward packet arriving at this observer at time `t_us`.
    fn observe(&mut self, pkt: &Ipv4Packet, t_us: u64) -> ObserverVerdict;
}

/// Per-flow configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Initial TTL on client packets.
    pub client_init_ttl: u8,
    /// Initial TTL on server packets.
    pub server_init_ttl: u8,
    /// Client ephemeral port.
    pub client_port: u16,
    /// Client initial sequence number.
    pub isn_client: u32,
    /// Server initial sequence number.
    pub isn_server: u32,
    /// Maximum segment size for response data.
    pub mss: usize,
    /// Organic noise: the server resets the connection after the handshake
    /// (overload, policy) — a false-positive source for the RST detector,
    /// which cannot distinguish organic from injected resets (the paper
    /// blames exactly this for ~30% unsolvable RST CNFs).
    pub organic_rst: bool,
    /// Organic noise: one response segment is lost and retransmitted,
    /// leaving a visible gap-then-duplicate in the capture — a
    /// false-positive source for the SEQNO detector.
    pub organic_loss: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            client_init_ttl: 64,
            server_init_ttl: 64,
            client_port: 40000,
            isn_client: 1000,
            isn_server: 5_000_000,
            mss: 1200,
            organic_rst: false,
            organic_loss: false,
        }
    }
}

/// Functional outcome of an HTTP fetch, as the client's "browser" sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlowOutcome {
    /// A complete HTTP response was assembled (possibly a blockpage).
    HttpOk(HttpResponse),
    /// The connection was reset before a response was assembled.
    HttpReset,
    /// Nothing (or no complete response) arrived.
    HttpTimeout,
}

/// Retransmission timer for dropped SYN / request segments.
const RETRANSMIT_US: u64 = 1_000_000;

/// The flow simulator.
///
/// Stateless: each call synthesises one flow's capture over a path with a
/// set of observers positioned on it.
pub struct FlowSimulator;

impl FlowSimulator {
    /// Propagate one forward packet along the path, consulting observers in
    /// AS-path order. Returns the time the packet reached the server
    /// (`None` if dropped en route), appending injections to the capture.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        path: &HopPath,
        cap: &mut Capture,
        t_send: u64,
        pkt: &Ipv4Packet,
        observers: &mut [(usize, &mut dyn OnPathObserver)],
    ) -> Option<u64> {
        cap.push(t_send, Direction::Out, pkt.clone());
        for (as_pos, obs) in observers.iter_mut() {
            let hop = match path.first_hop_of_as(*as_pos) {
                Some(h) => h,
                None => continue, // observer's AS not on this path
            };
            let t_at = t_send + path.delay_to_hop_us(hop);
            let verdict = obs.observe(pkt, t_at);
            for inj in verdict.inject {
                let mut p = inj.pkt;
                p.ttl = path.ttl_at_client_from_hop(hop, inj.initial_ttl);
                let t_arrive = t_at + path.delay_to_hop_us(hop) + inj.delay_us;
                cap.push(t_arrive, Direction::In, p);
            }
            if verdict.drop_forward {
                return None;
            }
        }
        Some(t_send + path.delay_to_hop_us(path.len() - 1))
    }

    /// Deliver one server packet to the client.
    fn from_server(path: &HopPath, cap: &mut Capture, t_sent_by_server: u64, mut pkt: Ipv4Packet, cfg: &FlowConfig) {
        pkt.ttl = path.ttl_at_client_from_server(cfg.server_init_ttl);
        let t_arrive = t_sent_by_server + path.delay_to_hop_us(path.len() - 1);
        cap.push(t_arrive, Direction::In, pkt);
    }

    /// Simulate a DNS lookup to the resolver at the end of `path`.
    ///
    /// `answer` is what the (honest) resolver would return; `None` models a
    /// resolver failure. Returns the capture and the DNS responses in
    /// arrival order — the client's stub resolver believes the first one.
    pub fn dns_lookup(
        path: &HopPath,
        cfg: &FlowConfig,
        query: &DnsMessage,
        answer: Option<&DnsMessage>,
        observers: &mut [(usize, &mut dyn OnPathObserver)],
    ) -> (Capture, Vec<DnsMessage>) {
        let mut cap = Capture::new();
        let q_wire = query.encode().expect("queries built by the platform are valid");
        let q_pkt = Ipv4Packet::udp(
            path.client_ip,
            path.server_ip,
            cfg.client_init_ttl,
            1,
            UdpDatagram::new(cfg.client_port, 53, q_wire),
        );
        let reached = Self::forward(path, &mut cap, 0, &q_pkt, observers);
        if let (Some(t_reach), Some(ans)) = (reached, answer) {
            let a_wire = ans.encode().expect("platform answers are valid");
            let a_pkt = Ipv4Packet::udp(
                path.server_ip,
                path.client_ip,
                cfg.server_init_ttl,
                2,
                UdpDatagram::new(53, cfg.client_port, a_wire),
            );
            Self::from_server(path, &mut cap, t_reach, a_pkt, cfg);
        }
        let responses = cap.dns_responses().into_iter().map(|(_, m)| m).collect();
        (cap, responses)
    }

    /// Simulate an HTTP GET to the server at the end of `path`.
    ///
    /// `server_body` is the genuine response the server would send.
    pub fn http_get(
        path: &HopPath,
        cfg: &FlowConfig,
        request: &HttpRequest,
        server_body: &HttpResponse,
        observers: &mut [(usize, &mut dyn OnPathObserver)],
    ) -> (Capture, FlowOutcome) {
        let mut cap = Capture::new();
        let sport = cfg.client_port;
        let client = path.client_ip;
        let server = path.server_ip;
        let mut ident_c = 100u16;
        let mut ident_s = 200u16;

        // --- SYN (with one retransmission on drop) ----------------------
        let syn = Ipv4Packet::tcp(client, server, cfg.client_init_ttl, ident_c, {
            TcpSegment::syn(sport, 80, cfg.isn_client)
        });
        ident_c += 1;
        let mut t = 0u64;
        let mut reached = Self::forward(path, &mut cap, t, &syn, observers);
        if reached.is_none() {
            t += RETRANSMIT_US;
            reached = Self::forward(path, &mut cap, t, &syn, observers);
        }
        let t_syn_at_server = match reached {
            Some(ts) => ts,
            None => {
                let outcome = Self::assemble(&cap, cfg);
                return (cap, outcome);
            }
        };

        // --- SYNACK -------------------------------------------------------
        let synack = Ipv4Packet::tcp(server, client, cfg.server_init_ttl, ident_s, TcpSegment {
            src_port: 80,
            dst_port: sport,
            seq: cfg.isn_server,
            ack: cfg.isn_client.wrapping_add(1),
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: 65535,
            payload: vec![],
        });
        ident_s += 1;
        Self::from_server(path, &mut cap, t_syn_at_server, synack, cfg);
        let t_handshake_done = t_syn_at_server + path.delay_to_hop_us(path.len() - 1);

        // --- ACK + GET ------------------------------------------------------
        let ack_pkt = Ipv4Packet::tcp(client, server, cfg.client_init_ttl, ident_c, TcpSegment {
            src_port: sport,
            dst_port: 80,
            seq: cfg.isn_client.wrapping_add(1),
            ack: cfg.isn_server.wrapping_add(1),
            flags: TcpFlags::ACK,
            window: 65535,
            payload: vec![],
        });
        ident_c += 1;
        let _ = Self::forward(path, &mut cap, t_handshake_done, &ack_pkt, observers);

        let get_payload = request.serialize();
        let get_pkt = Ipv4Packet::tcp(client, server, cfg.client_init_ttl, ident_c, TcpSegment {
            src_port: sport,
            dst_port: 80,
            seq: cfg.isn_client.wrapping_add(1),
            ack: cfg.isn_server.wrapping_add(1),
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 65535,
            payload: get_payload.clone(),
        });
        let mut t_get = t_handshake_done + 300;
        let mut get_reached = Self::forward(path, &mut cap, t_get, &get_pkt, observers);
        if get_reached.is_none() {
            t_get += RETRANSMIT_US;
            get_reached = Self::forward(path, &mut cap, t_get, &get_pkt, observers);
        }
        let t_get_at_server = match get_reached {
            Some(ts) => ts,
            None => {
                let outcome = Self::assemble(&cap, cfg);
                return (cap, outcome);
            }
        };

        // --- Server response --------------------------------------------
        let next_client_seq = cfg.isn_client.wrapping_add(1).wrapping_add(get_payload.len() as u32);
        if cfg.organic_rst {
            // Overloaded/impolite server: valid RST instead of data.
            let rst = Ipv4Packet::tcp(server, client, cfg.server_init_ttl, ident_s, TcpSegment {
                src_port: 80,
                dst_port: sport,
                seq: cfg.isn_server.wrapping_add(1),
                ack: next_client_seq,
                flags: TcpFlags::RST | TcpFlags::ACK,
                window: 0,
                payload: vec![],
            });
            Self::from_server(path, &mut cap, t_get_at_server + 100, rst, cfg);
            let outcome = Self::assemble(&cap, cfg);
            return (cap, outcome);
        }

        // ACK of the GET.
        let srv_ack = Ipv4Packet::tcp(server, client, cfg.server_init_ttl, ident_s, TcpSegment {
            src_port: 80,
            dst_port: sport,
            seq: cfg.isn_server.wrapping_add(1),
            ack: next_client_seq,
            flags: TcpFlags::ACK,
            window: 65535,
            payload: vec![],
        });
        ident_s += 1;
        Self::from_server(path, &mut cap, t_get_at_server + 50, srv_ack, cfg);

        // Data segments.
        let body = server_body.serialize();
        let mut seq = cfg.isn_server.wrapping_add(1);
        let mut t_seg = t_get_at_server + 400;
        let chunks: Vec<&[u8]> = body.chunks(cfg.mss.max(1)).collect();
        let lost_index = if cfg.organic_loss && chunks.len() > 1 { Some(chunks.len() / 2) } else { None };
        let mut deferred: Option<(u32, Vec<u8>)> = None;
        for (i, chunk) in chunks.iter().enumerate() {
            if lost_index == Some(i) {
                // Lost in transit: remember for retransmission.
                deferred = Some((seq, chunk.to_vec()));
            } else {
                let seg = TcpSegment {
                    src_port: 80,
                    dst_port: sport,
                    seq,
                    ack: next_client_seq,
                    flags: TcpFlags::PSH | TcpFlags::ACK,
                    window: 65535,
                    payload: chunk.to_vec(),
                };
                let pkt = Ipv4Packet::tcp(server, client, cfg.server_init_ttl, ident_s, seg);
                Self::from_server(path, &mut cap, t_seg, pkt, cfg);
            }
            ident_s += 1;
            seq = seq.wrapping_add(chunk.len() as u32);
            t_seg += 150;
        }
        if let Some((rseq, rchunk)) = deferred {
            // Retransmission: same sequence range again, later — the capture
            // now shows a gap followed by an overlap, organically.
            let seg = TcpSegment {
                src_port: 80,
                dst_port: sport,
                seq: rseq,
                ack: next_client_seq,
                flags: TcpFlags::PSH | TcpFlags::ACK,
                window: 65535,
                payload: rchunk,
            };
            let pkt = Ipv4Packet::tcp(server, client, cfg.server_init_ttl, ident_s, seg);
            Self::from_server(path, &mut cap, t_seg + RETRANSMIT_US / 2, pkt, cfg);
            ident_s += 1;
            t_seg += RETRANSMIT_US / 2 + 150;
        }

        // FIN from server, ACK from client.
        let fin = Ipv4Packet::tcp(server, client, cfg.server_init_ttl, ident_s, TcpSegment {
            src_port: 80,
            dst_port: sport,
            seq,
            ack: next_client_seq,
            flags: TcpFlags::FIN | TcpFlags::ACK,
            window: 65535,
            payload: vec![],
        });
        Self::from_server(path, &mut cap, t_seg, fin, cfg);
        let fin_ack = Ipv4Packet::tcp(client, server, cfg.client_init_ttl, ident_c, TcpSegment {
            src_port: sport,
            dst_port: 80,
            seq: next_client_seq,
            ack: seq.wrapping_add(1),
            flags: TcpFlags::FIN | TcpFlags::ACK,
            window: 65535,
            payload: vec![],
        });
        let _ = Self::forward(
            path,
            &mut cap,
            t_seg + path.delay_to_hop_us(path.len() - 1) + 100,
            &fin_ack,
            observers,
        );

        let outcome = Self::assemble(&cap, cfg);
        (cap, outcome)
    }

    /// Reassemble the client's view of the connection: in-order data on the
    /// (server → client) stream, stopping at the first valid RST.
    ///
    /// Injected data racing the genuine response wins by arriving first
    /// with the expected sequence number — exactly how blockpage injection
    /// defeats the real server.
    ///
    /// The response head is parsed once: data only grows by appending, so
    /// the first `\r\n\r\n` never moves once it has arrived, and neither
    /// does the head before it. A malformed head therefore never yields a
    /// response, and without a usable `Content-Length` the first complete
    /// head is the response.
    fn assemble(cap: &Capture, cfg: &FlowConfig) -> FlowOutcome {
        use std::collections::BTreeMap;
        let stream_start = cfg.isn_server.wrapping_add(1);
        // Out-of-order reassembly buffer keyed by offset into the stream,
        // borrowing the captured payloads.
        let mut buffer: BTreeMap<u32, &[u8]> = BTreeMap::new();
        let mut contiguous: u32 = 0; // bytes assembled in order so far
        let mut data: Vec<u8> = Vec::new();
        // `data` bytes already searched for the end of the head.
        let mut searched = 0usize;
        // Once the head has arrived: where the body starts, and the parsed
        // head (`None` if malformed).
        let mut head: Option<(usize, Option<HttpResponse>)> = None;
        let mut reset = false;
        for (_, seg) in cap.incoming_tcp() {
            if seg.flags.contains(TcpFlags::RST) {
                // Accept an RST whose seq is within a small window of the
                // next expected byte (clients are permissive in practice).
                let expected = stream_start.wrapping_add(contiguous);
                let delta = seg.seq.wrapping_sub(expected);
                if !(4096..=u32::MAX - 4096).contains(&delta) {
                    reset = true;
                    break;
                }
                continue; // wildly out-of-window RST ignored by the stack
            }
            if seg.has_data() {
                let off = seg.seq.wrapping_sub(stream_start);
                // Ignore segments far outside the plausible stream window.
                if off > 1 << 24 {
                    continue;
                }
                buffer.entry(off).or_insert(&seg.payload);
                // Drain everything now contiguous; the first writer of a
                // byte range wins, mirroring common client stacks (and
                // letting injected data beat the real server's).
                while let Some((&o, p)) = buffer.range(..=contiguous).next_back() {
                    let end = o.wrapping_add(p.len() as u32);
                    if end <= contiguous {
                        break;
                    }
                    data.extend_from_slice(&p[(contiguous - o) as usize..]);
                    contiguous = end;
                }
                if head.is_none() {
                    // A terminator may straddle the previous end of `data`.
                    let from = searched.saturating_sub(3);
                    if let Some(at) = crate::http::head_end(&data[from..]) {
                        let split = from + at;
                        head = Some((split + 4, HttpResponse::parse_head(&data[..split])));
                    }
                    searched = data.len();
                }
                if let Some((body_start, parsed)) = &mut head {
                    let have = data.len() - *body_start;
                    if let Some(mut resp) =
                        parsed.take_if(|r| have >= r.content_length().unwrap_or(have))
                    {
                        data.drain(..*body_start);
                        resp.body = data;
                        return FlowOutcome::HttpOk(resp);
                    }
                }
            }
        }
        if reset {
            FlowOutcome::HttpReset
        } else {
            FlowOutcome::HttpTimeout
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_topology::{Asn, Ipv4Prefix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn path() -> HopPath {
        let asns = [Asn(10), Asn(20), Asn(30)];
        let prefixes: HashMap<Asn, Vec<Ipv4Prefix>> = asns
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, vec![Ipv4Prefix::new(((i as u32) + 1) << 24, 16).unwrap()]))
            .collect();
        let mut rng = StdRng::seed_from_u64(9);
        let server = prefixes[&Asn(30)][0].nth_host(1);
        let client = prefixes[&Asn(10)][0].nth_host(1);
        HopPath::expand(&asns, &prefixes, client, server, (1, 2), &mut rng)
    }

    #[test]
    fn clean_get_completes_with_consistent_ttls() {
        let p = path();
        let cfg = FlowConfig::default();
        let req = HttpRequest::get("ok.example.com", "/");
        let resp = HttpResponse::ok("<html>fine</html>");
        let (cap, outcome) = FlowSimulator::http_get(&p, &cfg, &req, &resp, &mut []);
        match outcome {
            FlowOutcome::HttpOk(r) => assert_eq!(r.body, resp.body),
            other => panic!("expected ok, got {other:?}"),
        }
        // All incoming TCP packets carry the same remaining TTL (they all
        // come from the server).
        let ttls: Vec<u8> = cap.incoming_tcp().map(|(p, _)| p.pkt.ttl).collect();
        assert!(!ttls.is_empty());
        assert!(ttls.windows(2).all(|w| w[0] == w[1]), "ttls varied: {ttls:?}");
    }

    #[test]
    fn clean_get_has_monotone_seq_no_gaps() {
        let p = path();
        let cfg = FlowConfig::default();
        let req = HttpRequest::get("ok.example.com", "/");
        let resp = HttpResponse::ok(&"x".repeat(5000));
        let (cap, _) = FlowSimulator::http_get(&p, &cfg, &req, &resp, &mut []);
        let mut expected = cfg.isn_server.wrapping_add(1);
        for (_, seg) in cap.incoming_tcp().filter(|(_, s)| s.has_data()) {
            assert_eq!(seg.seq, expected, "unexpected gap/overlap in clean flow");
            expected = expected.wrapping_add(seg.payload.len() as u32);
        }
    }

    #[test]
    fn organic_rst_flows_reset_without_ttl_anomaly() {
        let p = path();
        let cfg = FlowConfig { organic_rst: true, ..FlowConfig::default() };
        let req = HttpRequest::get("ok.example.com", "/");
        let resp = HttpResponse::ok("body");
        let (cap, outcome) = FlowSimulator::http_get(&p, &cfg, &req, &resp, &mut []);
        assert_eq!(outcome, FlowOutcome::HttpReset);
        let ttls: Vec<u8> = cap.incoming_tcp().map(|(p, _)| p.pkt.ttl).collect();
        assert!(ttls.windows(2).all(|w| w[0] == w[1]), "organic RST must not change TTL");
    }

    #[test]
    fn organic_loss_produces_gap_then_overlap() {
        let p = path();
        let cfg = FlowConfig { organic_loss: true, mss: 400, ..FlowConfig::default() };
        let req = HttpRequest::get("ok.example.com", "/");
        let resp = HttpResponse::ok(&"y".repeat(2500));
        let (cap, outcome) = FlowSimulator::http_get(&p, &cfg, &req, &resp, &mut []);
        // Retransmission repairs the stream, so the fetch still succeeds…
        assert!(matches!(outcome, FlowOutcome::HttpOk(_)));
        // …but the capture order shows a sequence discontinuity.
        let seqs: Vec<u32> = cap
            .incoming_tcp()
            .filter(|(_, s)| s.has_data())
            .map(|(_, s)| s.seq)
            .collect();
        let sorted = {
            let mut s = seqs.clone();
            s.sort();
            s
        };
        assert_ne!(seqs, sorted, "loss must reorder the observed sequence numbers");
    }

    #[test]
    fn dns_lookup_single_answer_when_clean() {
        let p = path();
        let cfg = FlowConfig::default();
        let q = DnsMessage::query(7, "site.example.org");
        let a = DnsMessage::answer(&q, 0x08080404, 60);
        let (cap, responses) = FlowSimulator::dns_lookup(&p, &cfg, &q, Some(&a), &mut []);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].answers[0].addr, 0x08080404);
        assert_eq!(cap.dns_responses().len(), 1);
    }

    #[test]
    fn dns_lookup_resolver_failure_yields_nothing() {
        let p = path();
        let (_, responses) =
            FlowSimulator::dns_lookup(&p, &FlowConfig::default(), &DnsMessage::query(1, "x.y"), None, &mut []);
        assert!(responses.is_empty());
    }

    /// An observer that injects a forged RST when it sees payload (the GET).
    struct RstInjector {
        fired: bool,
    }

    impl OnPathObserver for RstInjector {
        fn observe(&mut self, pkt: &Ipv4Packet, _t: u64) -> ObserverVerdict {
            if self.fired {
                return ObserverVerdict::pass();
            }
            if let Payload::Tcp(seg) = &pkt.payload {
                if seg.has_data() {
                    self.fired = true;
                    return ObserverVerdict {
                        drop_forward: false,
                        inject: vec![InjectedPacket {
                            delay_us: 10,
                            initial_ttl: 64,
                            pkt: Ipv4Packet::tcp(pkt.dst, pkt.src, 64, 9999, TcpSegment {
                                src_port: 80,
                                dst_port: seg.src_port,
                                seq: seg.ack,
                                ack: seg.seq_end(),
                                flags: TcpFlags::RST,
                                window: 0,
                                payload: vec![],
                            }),
                        }],
                    };
                }
            }
            ObserverVerdict::pass()
        }
    }

    #[test]
    fn injected_rst_resets_and_leaves_ttl_fingerprint() {
        let p = path();
        let cfg = FlowConfig::default();
        let req = HttpRequest::get("blocked.example.com", "/");
        let resp = HttpResponse::ok("real content");
        let mut inj = RstInjector { fired: false };
        let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = vec![(1, &mut inj)];
        let (cap, outcome) = FlowSimulator::http_get(&p, &cfg, &req, &resp, &mut observers);
        assert_eq!(outcome, FlowOutcome::HttpReset);
        // The RST must carry a *different* remaining TTL than the SYNACK.
        let synack_ttl = cap
            .incoming_tcp()
            .find(|(_, s)| s.flags.contains(TcpFlags::SYN | TcpFlags::ACK))
            .map(|(p, _)| p.pkt.ttl)
            .unwrap();
        let rst_ttl = cap
            .incoming_tcp()
            .find(|(_, s)| s.flags.contains(TcpFlags::RST))
            .map(|(p, _)| p.pkt.ttl)
            .unwrap();
        assert!(rst_ttl > synack_ttl, "injector is closer, so more TTL must remain");
    }

    #[test]
    fn observer_off_path_is_ignored() {
        let p = path();
        let mut inj = RstInjector { fired: false };
        // as_pos 7 does not exist on a 3-AS path.
        let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = vec![(7, &mut inj)];
        let (_, outcome) = FlowSimulator::http_get(
            &p,
            &FlowConfig::default(),
            &HttpRequest::get("a.b", "/"),
            &HttpResponse::ok("ok"),
            &mut observers,
        );
        assert!(matches!(outcome, FlowOutcome::HttpOk(_)));
    }

    /// Observer that drops everything with payload (blackholing filter).
    struct Dropper;

    impl OnPathObserver for Dropper {
        fn observe(&mut self, pkt: &Ipv4Packet, _t: u64) -> ObserverVerdict {
            let drop = matches!(&pkt.payload, Payload::Tcp(s) if s.has_data());
            ObserverVerdict { drop_forward: drop, inject: vec![] }
        }
    }

    #[test]
    fn dropped_get_times_out_after_retransmit() {
        let p = path();
        let mut d = Dropper;
        let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = vec![(1, &mut d)];
        let (cap, outcome) = FlowSimulator::http_get(
            &p,
            &FlowConfig::default(),
            &HttpRequest::get("a.b", "/"),
            &HttpResponse::ok("ok"),
            &mut observers,
        );
        assert_eq!(outcome, FlowOutcome::HttpTimeout);
        // The GET appears twice in the capture (original + retransmit).
        let gets = cap
            .packets
            .iter()
            .filter(|cp| {
                cp.dir == Direction::Out
                    && cp.pkt.as_tcp().map(|s| s.has_data()).unwrap_or(false)
            })
            .count();
        assert_eq!(gets, 2);
    }

    // --- Reassembly edge cases ----------------------------------------------

    /// A capture of server → client segments at the given stream offsets,
    /// in arrival order: `Some(bytes)` is a data segment, `None` an
    /// in-window RST at that offset.
    fn server_capture(cfg: &FlowConfig, segs: &[(u32, Option<&[u8]>)]) -> Capture {
        let mut cap = Capture::new();
        for (i, (off, payload)) in segs.iter().enumerate() {
            let (flags, payload) = match payload {
                Some(p) => (TcpFlags::PSH | TcpFlags::ACK, p.to_vec()),
                None => (TcpFlags::RST, vec![]),
            };
            let seg = TcpSegment {
                src_port: 80,
                dst_port: cfg.client_port,
                seq: cfg.isn_server.wrapping_add(1).wrapping_add(*off),
                ack: 0,
                flags,
                window: 65535,
                payload,
            };
            cap.push(100 * i as u64, Direction::In, Ipv4Packet::tcp(2, 1, 60, i as u16, seg));
        }
        cap
    }

    /// `wire` cut at `cuts` into in-order data segments.
    fn in_order<'a>(wire: &'a [u8], cuts: &[usize]) -> Vec<(u32, Option<&'a [u8]>)> {
        let mut bounds = vec![0];
        bounds.extend_from_slice(cuts);
        bounds.push(wire.len());
        bounds.windows(2).map(|w| (w[0] as u32, Some(&wire[w[0]..w[1]]))).collect()
    }

    fn assemble_segments(segs: &[(u32, Option<&[u8]>)]) -> FlowOutcome {
        let cfg = FlowConfig::default();
        FlowSimulator::assemble(&server_capture(&cfg, segs), &cfg)
    }

    fn ok_body(outcome: FlowOutcome) -> Vec<u8> {
        match outcome {
            FlowOutcome::HttpOk(r) => r.body,
            other => panic!("expected a response, got {other:?}"),
        }
    }

    #[test]
    fn content_length_spanning_segments_waits_for_the_whole_body() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n0123456789";
        // The header name, the blank line and the body are all split.
        let cuts = [24, 38, 43, 47];
        let segs = in_order(wire, &cuts);
        for n in 1..segs.len() {
            assert_eq!(assemble_segments(&segs[..n]), FlowOutcome::HttpTimeout, "{n} segments");
        }
        let FlowOutcome::HttpOk(r) = assemble_segments(&segs) else { panic!("incomplete") };
        assert_eq!((r.status, r.reason.as_str()), (200, "OK"));
        assert_eq!(r.headers, vec![("Content-Length".to_string(), "10".to_string())]);
        assert_eq!(r.body, b"0123456789");
    }

    #[test]
    fn body_past_content_length_is_kept_when_drained_together() {
        // The second segment fills a hole and drains everything at once:
        // the response carries every contiguous byte, not just the first
        // Content-Length of them.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nabcdef";
        let segs = [(30, Some(&wire[30..])), (0, Some(&wire[..30]))];
        assert_eq!(ok_body(assemble_segments(&segs)), b"abcdef");
    }

    #[test]
    fn missing_content_length_completes_at_the_first_head() {
        let wire = b"HTTP/1.1 200 OK\r\nX-Filler: yes\r\n\r\nabcd";
        assert_eq!(ok_body(assemble_segments(&in_order(wire, &[36]))), b"ab");
        // An unparseable length counts as missing.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: lots\r\n\r\nabcd";
        assert_eq!(ok_body(assemble_segments(&in_order(wire, &[]))), b"abcd");
        // A head with nothing after it is already complete.
        let wire = b"HTTP/1.1 204 No Content\r\n\r\n";
        assert_eq!(ok_body(assemble_segments(&in_order(wire, &[]))), b"");
    }

    #[test]
    fn malformed_head_never_yields_a_response() {
        for wire in [
            &b"HTTX/1.1 200 OK\r\nContent-Length: 2\r\n\r\nab"[..],
            b"HTTP/1.1 2xx OK\r\nContent-Length: 2\r\n\r\nab",
            b"HTTP/1.1 99999 OK\r\n\r\nab",
            b"HTTP/1.1 200 \xff\r\nContent-Length: 2\r\n\r\nab",
            b"\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nab",
        ] {
            // Whole or byte by byte, and with a valid response following
            // the malformed head: the first head decides, and it is bad.
            let mut longer = wire.to_vec();
            longer.extend_from_slice(b"HTTP/1.1 200 OK\r\n\r\n");
            let bytewise: Vec<usize> = (1..longer.len()).collect();
            for segs in [in_order(wire, &[]), in_order(&longer, &bytewise)] {
                assert_eq!(assemble_segments(&segs), FlowOutcome::HttpTimeout, "{wire:?}");
            }
        }
        // A reset after a malformed head is still a reset.
        let wire = b"HTTX/1.1 200 OK\r\n\r\n";
        let segs = [(0, Some(&wire[..])), (wire.len() as u32, None)];
        assert_eq!(assemble_segments(&segs), FlowOutcome::HttpReset);
    }

    #[test]
    fn head_terminator_straddling_a_segment_boundary() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nxyz";
        let end = wire.len() - 3; // just past the blank line
        for cut in end - 4..=end {
            let segs = in_order(wire, &[cut]);
            assert_eq!(assemble_segments(&segs[..1]), FlowOutcome::HttpTimeout, "cut {cut}");
            assert_eq!(ok_body(assemble_segments(&segs)), b"xyz", "cut {cut}");
        }
        // Terminator spread over four one-byte segments.
        let segs = in_order(wire, &[end - 4, end - 3, end - 2, end - 1]);
        assert_eq!(ok_body(assemble_segments(&segs)), b"xyz");
    }

    #[test]
    fn injected_blockpage_wins_the_race_with_the_genuine_response() {
        let genuine = HttpResponse::ok(&"real ".repeat(500)).serialize();
        let page = HttpResponse::ok("<html>blocked</html>").serialize();
        // Injected page first at offset 0: the genuine bytes at the same
        // offsets lose, and the complete page is the response.
        let mut segs = vec![(0, Some(&page[..]))];
        segs.extend(in_order(&genuine, &[1200, 2400]));
        assert_eq!(ok_body(assemble_segments(&segs)), b"<html>blocked</html>");
        // A page whose Content-Length outruns its bytes waits for more.
        // A genuine segment at an offset the page already claimed is
        // dropped whole, so segment-aligned genuine data never completes
        // it...
        let mut lying = HttpResponse::ok("<html>blocked</html>");
        lying.headers[1].1 = "30".to_string();
        let lying = lying.serialize();
        let mut segs = vec![(0, Some(&lying[..]))];
        segs.extend(in_order(&genuine, &[1200, 2400]));
        assert_eq!(assemble_segments(&segs), FlowOutcome::HttpTimeout);
        // ...but one starting inside the page supplies the bytes past its
        // end, and the response mixes the two.
        let mut segs = vec![(0, Some(&lying[..]))];
        segs.extend(in_order(&genuine, &[10, 1200, 2400]));
        let body = ok_body(assemble_segments(&segs));
        let mut want = b"<html>blocked</html>".to_vec();
        want.extend_from_slice(&genuine[lying.len()..1200]);
        assert_eq!(body, want);
        // Genuine response first: the late injection changes nothing.
        let mut segs = in_order(&genuine, &[1200, 2400]);
        segs.push((0, Some(&page[..])));
        assert_eq!(ok_body(assemble_segments(&segs)), &genuine[genuine.len() - 2500..]);
    }

    #[test]
    fn organic_loss_then_retransmission_completes_the_genuine_body() {
        let genuine = HttpResponse::ok(&"z".repeat(2500));
        let wire = genuine.serialize();
        let segs = in_order(&wire, &[400, 800, 1200, 1600, 2000, 2400]);
        // Lose the fourth segment; it is retransmitted after the rest.
        let mut arrived: Vec<_> = segs.iter().enumerate().filter(|(i, _)| *i != 3).map(|(_, s)| *s).collect();
        assert_eq!(assemble_segments(&arrived), FlowOutcome::HttpTimeout, "gap must stall the body");
        arrived.push(segs[3]);
        assert_eq!(assemble_segments(&arrived), FlowOutcome::HttpOk(genuine.clone()));
        // A reset while the gap is open aborts the fetch.
        let mut reset = arrived[..arrived.len() - 1].to_vec();
        reset.push((1200, None));
        assert_eq!(assemble_segments(&reset), FlowOutcome::HttpReset);
        // End to end through the simulator.
        let cfg = FlowConfig { organic_loss: true, mss: 400, ..FlowConfig::default() };
        let (_, outcome) =
            FlowSimulator::http_get(&path(), &cfg, &HttpRequest::get("a.b", "/"), &genuine, &mut []);
        assert_eq!(outcome, FlowOutcome::HttpOk(genuine));
    }

    /// The reassembler as it was before the head was parsed once: the
    /// whole buffer re-parsed after every data segment. Kept as the
    /// oracle for [`FlowSimulator::assemble`].
    fn assemble_reparse(cap: &Capture, cfg: &FlowConfig) -> FlowOutcome {
        use std::collections::BTreeMap;
        let stream_start = cfg.isn_server.wrapping_add(1);
        let mut buffer: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        let mut contiguous: u32 = 0;
        let mut data: Vec<u8> = Vec::new();
        let mut reset = false;
        for (_, seg) in cap.incoming_tcp() {
            if seg.flags.contains(TcpFlags::RST) {
                let delta = seg.seq.wrapping_sub(stream_start.wrapping_add(contiguous));
                if !(4096..=u32::MAX - 4096).contains(&delta) {
                    reset = true;
                    break;
                }
                continue;
            }
            if seg.has_data() {
                let off = seg.seq.wrapping_sub(stream_start);
                if off > 1 << 24 {
                    continue;
                }
                buffer.entry(off).or_insert_with(|| seg.payload.clone());
                loop {
                    let next = buffer.range(..=contiguous).next_back().map(|(o, p)| (*o, p.len() as u32));
                    match next {
                        Some((o, len)) if o.wrapping_add(len) > contiguous => {
                            let chunk = buffer[&o][(contiguous - o) as usize..].to_vec();
                            data.extend_from_slice(&chunk);
                            contiguous = o.wrapping_add(len);
                        }
                        _ => break,
                    }
                }
                if let Some(resp) = HttpResponse::parse(&data) {
                    let want = resp.content_length().unwrap_or(resp.body.len());
                    if resp.body.len() >= want {
                        return FlowOutcome::HttpOk(resp);
                    }
                }
            }
        }
        if reset {
            FlowOutcome::HttpReset
        } else {
            FlowOutcome::HttpTimeout
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]
        #[test]
        fn prop_assemble_matches_reparsing_oracle(seed in proptest::prelude::any::<u64>()) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let body: Vec<u8> = (0..rng.gen_range(0..300)).map(|_| rng.gen()).collect();
            let mut resp = HttpResponse::ok("");
            resp.headers[1].1 = body.len().to_string();
            resp.body = body;
            match rng.gen_range(0..4) {
                0 => {}
                1 => resp.headers[1].1 = rng.gen_range(0..400usize).to_string(),
                2 => resp.headers[1].1 = "unknown".to_string(),
                _ => drop(resp.headers.pop()),
            }
            if rng.gen_bool(0.2) {
                resp.reason = "\u{fffd}".repeat(rng.gen_range(0..2));
                resp.status = 0;
            }
            let mut wire = resp.serialize();
            if rng.gen_bool(0.15) {
                wire[rng.gen_range(0..4)] = b'X'; // malformed version
            }
            // Segments: in-order pieces, shuffled a little, with injected
            // racers at random offsets, duplicates and resets.
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..8)).map(|_| rng.gen_range(0..=wire.len())).collect();
            cuts.sort();
            let mut segs = in_order(&wire, &cuts);
            let racer: Vec<u8> = (0..rng.gen_range(1..40)).map(|_| rng.gen()).collect();
            let extra = rng.gen_range(0..4);
            for _ in 0..extra {
                let at = rng.gen_range(0..=segs.len());
                let seg = match rng.gen_range(0..3) {
                    0 => (rng.gen_range(0..wire.len() as u32 + 8), Some(&racer[..])),
                    1 if !segs.is_empty() => segs[rng.gen_range(0..segs.len())],
                    _ => (rng.gen_range(0..wire.len() as u32 + 8), None),
                };
                segs.insert(at, seg);
            }
            for _ in 0..rng.gen_range(0..3) {
                if segs.len() > 1 {
                    let i = rng.gen_range(0..segs.len() - 1);
                    segs.swap(i, i + 1);
                }
            }
            let cfg = FlowConfig::default();
            let cap = server_capture(&cfg, &segs);
            proptest::prop_assert_eq!(FlowSimulator::assemble(&cap, &cfg), assemble_reparse(&cap, &cfg));
        }
    }
}
