//! The five anomaly detectors (§2.1 of the paper).
//!
//! Detectors consume packet captures and the reassembled HTTP outcome —
//! never simulator ground truth — so they have honest false-positive and
//! false-negative modes:
//!
//! * **DNS**: two response packets for the same query id within two
//!   seconds (the paper's exact rule).
//! * **TTL**: the IP TTL of the connection's SYNACK disagrees with a later
//!   packet of the same connection (relies on the censor being unable to
//!   act before the SYNACK, as the paper argues). Misses censors that
//!   mimic TTLs.
//! * **SEQNO**: overlapping sequence ranges with *different* payload
//!   bytes, an unfilled gap at stream end, or an RST whose sequence number
//!   aligns with no segment boundary. Exact duplicates (organic
//!   retransmissions) are deliberately not flagged.
//! * **RESET**: any mid-connection RST — which by construction cannot
//!   distinguish organic from injected resets; the resulting false
//!   positives are the paper's explanation for ~30% of RST CNFs being
//!   unsolvable.
//! * **Blockpage**: fingerprint-list substring match (OONI-style), with a
//!   Jones-et-al length-ratio fallback against the censor-free US control
//!   body — which catches unfingerprinted blockpages but misses nothing
//!   else in a noise-free world.

use crate::anomaly::{AnomalySet, AnomalyType};
use churnlab_net::{Capture, FlowOutcome, TcpFlags};

/// DNS anomaly window from the paper: a second response within 2 s.
const DNS_WINDOW_US: u64 = 2_000_000;

/// Detect DNS injection: ≥2 responses for the same transaction id within
/// the 2-second window.
pub fn detect_dns(dns_capture: &Capture) -> bool {
    let responses = dns_capture.dns_responses();
    for (i, (t1, m1)) in responses.iter().enumerate() {
        for (t2, m2) in responses.iter().skip(i + 1) {
            if m1.id == m2.id && t2.saturating_sub(*t1) <= DNS_WINDOW_US {
                return true;
            }
        }
    }
    false
}

/// Detect TTL anomalies: any incoming TCP packet whose TTL differs from
/// the SYNACK's. Returns false when no SYNACK was captured.
pub fn detect_ttl(http_capture: &Capture) -> bool {
    let synack_ttl = http_capture
        .incoming_tcp()
        .find(|(_, s)| s.flags.contains(TcpFlags::SYN | TcpFlags::ACK))
        .map(|(p, _)| p.pkt.ttl);
    let baseline = match synack_ttl {
        Some(t) => t,
        None => return false,
    };
    http_capture.incoming_tcp().any(|(p, s)| {
        !s.flags.contains(TcpFlags::SYN) && p.pkt.ttl != baseline
    })
}

/// Detect sequence-number anomalies.
pub fn detect_seqno(http_capture: &Capture) -> bool {
    // Establish the stream origin from the SYNACK.
    let stream_start = match http_capture
        .incoming_tcp()
        .find(|(_, s)| s.flags.contains(TcpFlags::SYN | TcpFlags::ACK))
        .map(|(_, s)| s.seq.wrapping_add(1))
    {
        Some(s) => s,
        None => return false,
    };
    let rel = |seq: u32| seq.wrapping_sub(stream_start);

    // Collect incoming data segments as relative ranges.
    let mut segments: Vec<(u32, &[u8])> = Vec::new();
    let mut rsts: Vec<u32> = Vec::new();
    for (_, seg) in http_capture.incoming_tcp() {
        if seg.flags.contains(TcpFlags::RST) {
            rsts.push(rel(seg.seq));
        } else if seg.has_data() {
            let off = rel(seg.seq);
            if off < 1 << 24 {
                segments.push((off, &seg.payload));
            }
        }
    }

    // Rule 1: overlapping ranges with differing content.
    for (i, (a_off, a_pay)) in segments.iter().enumerate() {
        for (b_off, b_pay) in segments.iter().skip(i + 1) {
            let a_end = a_off + a_pay.len() as u32;
            let b_end = b_off + b_pay.len() as u32;
            let lo = (*a_off).max(*b_off);
            let hi = a_end.min(b_end);
            if lo >= hi {
                continue; // disjoint
            }
            let a_slice = &a_pay[(lo - a_off) as usize..(hi - a_off) as usize];
            let b_slice = &b_pay[(lo - b_off) as usize..(hi - b_off) as usize];
            if a_slice != b_slice {
                return true;
            }
        }
    }

    // Rule 2: a gap in the stream that never fills.
    if !segments.is_empty() {
        let mut ranges: Vec<(u32, u32)> =
            segments.iter().map(|(o, p)| (*o, *o + p.len() as u32)).collect();
        ranges.sort();
        let mut covered_end = 0u32;
        let mut gap = false;
        for (s, e) in ranges {
            if s > covered_end {
                gap = true;
                break;
            }
            covered_end = covered_end.max(e);
        }
        if gap {
            return true;
        }
    }

    // Rule 3: an RST whose sequence number aligns with no segment boundary.
    if !rsts.is_empty() {
        let mut boundaries: Vec<u32> = vec![0];
        for (o, p) in &segments {
            boundaries.push(*o);
            boundaries.push(*o + p.len() as u32);
        }
        for r in rsts {
            // Plausible positions: within the stream (small positive
            // offsets) or just before it (small negative offsets — sloppy
            // injectors undershoot too).
            let plausible = !(1 << 24..=u32::MAX - 4096).contains(&r);
            if plausible && !boundaries.contains(&r) {
                return true;
            }
        }
    }
    false
}

/// Detect RESET anomalies: any incoming RST on the measured connection.
pub fn detect_reset(http_capture: &Capture) -> bool {
    http_capture
        .incoming_tcp()
        .any(|(_, s)| s.flags.contains(TcpFlags::RST))
}

/// The blockpage fingerprint matcher: every signature of an OONI-style
/// fingerprint list, searched for at once in raw payload bytes.
///
/// Signatures must be non-empty ASCII (asserted at construction). For an
/// ASCII needle a match on the raw bytes is exactly a match on their
/// lossy UTF-8 decoding: ASCII bytes decode to themselves and every other
/// byte decodes to non-ASCII text, so the detector needs no decoding.
///
/// The scan reads 8 bytes at a time and tests the word for any
/// signature's first byte with a SWAR zero-byte test; only words holding
/// one are looked at byte by byte, and each candidate position is
/// confirmed with `starts_with`. On HTML pages, whose text rarely holds a
/// signature's first byte, almost every word is rejected in a few
/// instructions.
#[derive(Debug)]
pub struct BlockpageMatcher {
    signatures: Vec<Box<[u8]>>,
    /// Each distinct first byte, repeated in all 8 lanes of a word.
    first_words: Vec<u64>,
    /// Whether a byte starts some signature.
    is_first: [bool; 256],
}

impl BlockpageMatcher {
    /// A matcher over `fingerprints` (see
    /// `churnlab_censor::blockpage::fingerprint_list`).
    ///
    /// # Panics
    ///
    /// If a signature is empty or not ASCII.
    pub fn new(fingerprints: &[&str]) -> Self {
        let mut is_first = [false; 256];
        let mut first_words = Vec::new();
        for f in fingerprints {
            assert!(
                !f.is_empty() && f.is_ascii(),
                "blockpage signature {f:?} must be non-empty ASCII"
            );
            let b = f.as_bytes()[0];
            if !is_first[usize::from(b)] {
                is_first[usize::from(b)] = true;
                first_words.push(u64::from(b) * LANES_LO);
            }
        }
        let signatures = fingerprints.iter().map(|f| f.as_bytes().into()).collect();
        BlockpageMatcher { signatures, first_words, is_first }
    }

    /// Whether any signature occurs in `payload`.
    pub fn is_match(&self, payload: &[u8]) -> bool {
        let mut at = 0;
        for word in payload.chunks_exact(8) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            let hits = self.first_words.iter().fold(0, |m, &f| m | zero_bytes(w ^ f));
            if hits != 0 && self.match_starts_in(payload, at..at + 8) {
                return true;
            }
            at += 8;
        }
        // The unaligned tail, byte by byte.
        self.match_starts_in(payload, at..payload.len())
    }

    /// Whether a signature starts at a position in `starts`.
    fn match_starts_in(&self, payload: &[u8], starts: std::ops::Range<usize>) -> bool {
        starts.into_iter().any(|i| {
            self.is_first[usize::from(payload[i])]
                && self.signatures.iter().any(|s| payload[i..].starts_with(s))
        })
    }
}

/// `0x01` in every byte lane.
const LANES_LO: u64 = 0x0101_0101_0101_0101;

/// Nonzero iff some byte of `w` is zero (the borrow trick can flag lanes
/// above a zero byte too, but never flags a word without one).
#[inline]
fn zero_bytes(w: u64) -> u64 {
    w.wrapping_sub(LANES_LO) & !w & (LANES_LO << 7)
}

/// Whether `body` contains `<html`, ignoring ASCII case — the same answer
/// as lowercasing its lossy decoding, without the two copies.
fn has_html_tag(body: &[u8]) -> bool {
    body.windows(5).any(|w| w.eq_ignore_ascii_case(b"<html"))
}

/// Detect blockpages: fingerprint scan over every received TCP payload
/// (ICLab analyses raw captures, so a blockpage that lost the reassembly
/// race — or arrived after an injected RST — is still visible), plus the
/// Jones-et-al length heuristic against the censor-free US control body
/// for pages the fingerprint list does not know.
///
/// Each segment is scanned on its own: a signature split across two
/// segments does not match. Allocation-free.
pub fn detect_block(
    http_capture: &Capture,
    outcome: &FlowOutcome,
    blockpages: &BlockpageMatcher,
    control_body: Option<&[u8]>,
) -> bool {
    // Raw-capture fingerprint scan.
    if http_capture.incoming_tcp().any(|(_, seg)| blockpages.is_match(&seg.payload)) {
        return true;
    }
    // Length heuristic on what the browser actually assembled.
    let (FlowOutcome::HttpOk(resp), Some(control)) = (outcome, control_body) else {
        return false;
    };
    // Jones et al.: blockpages differ starkly in length from the real
    // page. Flag HTML bodies under 30% / over 333% of the control size.
    let ratio = resp.body.len() as f64 / control.len().max(1) as f64;
    !(0.30..=3.33).contains(&ratio) && has_html_tag(&resp.body)
}

/// Run all five detectors over one measurement's artifacts.
pub fn detect_all(
    dns_capture: &Capture,
    http_capture: &Capture,
    http_outcome: &FlowOutcome,
    blockpages: &BlockpageMatcher,
    control_body: Option<&[u8]>,
) -> AnomalySet {
    let mut set = AnomalySet::empty();
    if detect_dns(dns_capture) {
        set.insert(AnomalyType::Dns);
    }
    if detect_ttl(http_capture) {
        set.insert(AnomalyType::Ttl);
    }
    if detect_seqno(http_capture) {
        set.insert(AnomalyType::Seqno);
    }
    if detect_reset(http_capture) {
        set.insert(AnomalyType::Reset);
    }
    if detect_block(http_capture, http_outcome, blockpages, control_body) {
        set.insert(AnomalyType::Block);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_censor::{
        ActiveCensor, CensorPolicy, Mechanism, MechanismProfile, TestContext, UrlCategory,
    };
    use churnlab_net::{
        DnsMessage, FlowConfig, FlowSimulator, HopPath, HttpRequest, HttpResponse,
        OnPathObserver,
    };
    use churnlab_topology::{Asn, Ipv4Prefix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn fingerprints() -> BlockpageMatcher {
        BlockpageMatcher::new(&churnlab_censor::blockpage::fingerprint_list())
    }

    fn path() -> HopPath {
        let asns = [Asn(10), Asn(20), Asn(30), Asn(40)];
        let prefixes: HashMap<Asn, Vec<Ipv4Prefix>> = asns
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, vec![Ipv4Prefix::new(((i as u32) + 1) << 24, 16).unwrap()]))
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let server = prefixes[&Asn(40)][0].nth_host(1);
        let client = prefixes[&Asn(10)][0].nth_host(1);
        HopPath::expand(&asns, &prefixes, client, server, (1, 2), &mut rng)
    }

    fn censor(mechs: Vec<Mechanism>, profile: MechanismProfile) -> churnlab_censor::CompiledCensor {
        CensorPolicy::steady(Asn(20), mechs, profile, [UrlCategory::News], 365)
            .compile(&[("bad.example".into(), UrlCategory::News)])
    }

    fn run_http(
        compiled: Option<&churnlab_censor::CompiledCensor>,
        domain: &str,
        cfg: &FlowConfig,
    ) -> (churnlab_net::Capture, FlowOutcome, HttpResponse) {
        let p = path();
        let real = HttpResponse::ok(&format!(
            "<html><body>{}</body></html>",
            "real content ".repeat(200)
        ));
        let req = HttpRequest::get(domain, "/");
        let mimic = cfg
            .server_init_ttl
            .saturating_sub(p.len() as u8 - 1)
            .saturating_add(p.first_hop_of_as(1).unwrap() as u8);
        let mut armed;
        let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = vec![];
        if let Some(c) = compiled {
            armed = ActiveCensor::new(c, TestContext { day: 5, mimic_init_ttl: mimic });
            observers.push((1, &mut armed));
        }
        let (cap, outcome) = FlowSimulator::http_get(&p, cfg, &req, &real, &mut observers);
        (cap, outcome, real)
    }

    #[test]
    fn clean_flow_detects_nothing() {
        let cfg = FlowConfig::default();
        let (cap, outcome, real) = run_http(None, "bad.example", &cfg);
        let set = detect_all(
            &Capture::new(),
            &cap,
            &outcome,
            &fingerprints(),
            Some(&real.serialize()),
        );
        assert!(set.is_empty(), "clean flow flagged: {set}");
    }

    #[test]
    fn organic_loss_not_flagged_as_seqno() {
        let cfg = FlowConfig { organic_loss: true, mss: 500, ..FlowConfig::default() };
        let (cap, _, _) = run_http(None, "bad.example", &cfg);
        assert!(!detect_seqno(&cap), "retransmission must not look like censorship");
    }

    #[test]
    fn organic_rst_flags_reset_only() {
        let cfg = FlowConfig { organic_rst: true, ..FlowConfig::default() };
        let (cap, outcome, real) = run_http(None, "bad.example", &cfg);
        assert!(detect_reset(&cap));
        assert!(!detect_ttl(&cap), "server's own RST has the right TTL");
        assert!(!detect_seqno(&cap), "server's own RST has the right seq");
        assert!(!detect_block(&cap, &outcome, &BlockpageMatcher::new(&[]), Some(&real.serialize())));
    }

    #[test]
    fn rst_injection_flags_reset_and_ttl() {
        let c = censor(vec![Mechanism::RstInjection], MechanismProfile::default());
        let (cap, _, _) = run_http(Some(&c), "bad.example", &FlowConfig::default());
        assert!(detect_reset(&cap), "injected RST missed");
        assert!(detect_ttl(&cap), "injector TTL fingerprint missed");
    }

    #[test]
    fn mimicking_injector_evades_ttl_detector() {
        let profile = MechanismProfile { mimic_ttl: true, ..Default::default() };
        let c = censor(vec![Mechanism::RstInjection], profile);
        let (cap, _, _) = run_http(Some(&c), "bad.example", &FlowConfig::default());
        assert!(detect_reset(&cap));
        assert!(!detect_ttl(&cap), "mimicked TTL should evade the detector");
    }

    #[test]
    fn sloppy_rst_flags_seqno() {
        let profile = MechanismProfile { seq_fuzz: 700, ..Default::default() };
        let c = censor(vec![Mechanism::RstInjection], profile);
        let (cap, _, _) = run_http(Some(&c), "bad.example", &FlowConfig::default());
        assert!(detect_seqno(&cap), "fuzzed RST seq must trip the SEQNO detector");
    }

    #[test]
    fn blockpage_detected_by_fingerprint() {
        let profile = MechanismProfile { blockpage_id: 0, ..Default::default() };
        let c = censor(vec![Mechanism::Blockpage], profile);
        let (cap, outcome, real) = run_http(Some(&c), "bad.example", &FlowConfig::default());
        let fps = fingerprints();
        assert!(detect_block(&cap, &outcome, &fps, Some(&real.serialize())));
        // The page arrives from the censor's position: TTL anomaly too
        // (matching the paper's UK "Block, TTL" pattern).
        assert!(detect_ttl(&cap));
    }

    #[test]
    fn unfingerprinted_blockpage_caught_by_length_heuristic() {
        // Template 4 ("generic-denied") is not in the fingerprint list.
        let profile = MechanismProfile { blockpage_id: 4, ..Default::default() };
        let c = censor(vec![Mechanism::Blockpage], profile);
        let (cap, outcome, real) = run_http(Some(&c), "bad.example", &FlowConfig::default());
        let fps = fingerprints();
        assert!(
            detect_block(&cap, &outcome, &fps, Some(&real.body)),
            "length heuristic should catch the stealth blockpage"
        );
        assert!(
            !detect_block(&cap, &outcome, &fps, None),
            "without a control body the stealth page evades"
        );
    }

    #[test]
    fn seq_manipulation_flags_seqno() {
        let c = censor(vec![Mechanism::SeqManipulation], MechanismProfile::default());
        let (cap, _, _) = run_http(Some(&c), "bad.example", &FlowConfig::default());
        assert!(detect_seqno(&cap), "poisoned stream must trip SEQNO");
    }

    #[test]
    fn untargeted_domain_is_clean() {
        let c = censor(Mechanism::ALL.to_vec(), MechanismProfile::default());
        let (cap, outcome, real) = run_http(Some(&c), "innocent.example", &FlowConfig::default());
        let set = detect_all(
            &Capture::new(),
            &cap,
            &outcome,
            &fingerprints(),
            Some(&real.serialize()),
        );
        assert!(set.is_empty(), "uncensored domain flagged: {set}");
    }

    #[test]
    fn dns_injection_detected_via_double_response() {
        let p = path();
        let c = censor(vec![Mechanism::DnsInjection], MechanismProfile::default());
        let q = DnsMessage::query(9, "bad.example");
        let honest = DnsMessage::answer(&q, p.server_ip, 300);
        let mut armed = ActiveCensor::new(&c, TestContext { day: 5, mimic_init_ttl: 64 });
        let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = vec![(1, &mut armed)];
        let (cap, responses) =
            FlowSimulator::dns_lookup(&p, &FlowConfig::default(), &q, Some(&honest), &mut observers);
        assert_eq!(responses.len(), 2, "injected + honest");
        assert!(detect_dns(&cap));
        // The injected response arrives first (closer).
        assert_ne!(responses[0].answers[0].addr, p.server_ip);
    }

    #[test]
    fn single_dns_response_is_clean() {
        let p = path();
        let q = DnsMessage::query(9, "bad.example");
        let honest = DnsMessage::answer(&q, p.server_ip, 300);
        let (cap, _) =
            FlowSimulator::dns_lookup(&p, &FlowConfig::default(), &q, Some(&honest), &mut []);
        assert!(!detect_dns(&cap));
    }

    // --- Blockpage matcher vs. the lossy-decode rule -------------------------

    /// The rule the matcher replaced, kept as its oracle: decode each
    /// payload lossily and search it for each fingerprint.
    fn lossy_rule(payload: &[u8], fingerprints: &[&str]) -> bool {
        let text = String::from_utf8_lossy(payload);
        fingerprints.iter().any(|f| text.contains(f))
    }

    /// A capture of one in-order data segment per payload.
    fn data_capture(payloads: &[&[u8]]) -> Capture {
        let mut cap = Capture::new();
        for (i, p) in payloads.iter().enumerate() {
            let seg = churnlab_net::TcpSegment {
                src_port: 80,
                dst_port: 40000,
                seq: 1000 * i as u32,
                ack: 0,
                flags: TcpFlags::PSH | TcpFlags::ACK,
                window: 65535,
                payload: p.to_vec(),
            };
            let pkt = churnlab_net::Ipv4Packet::tcp(2, 1, 60, i as u16, seg);
            cap.push(i as u64, churnlab_net::Direction::In, pkt);
        }
        cap
    }

    /// Random filler biased toward the bytes that matter: signature
    /// letters, bytes ≥ 0x80 (invalid UTF-8 on their own) and valid
    /// multi-byte characters.
    fn filler(rng: &mut StdRng, len: usize) -> Vec<u8> {
        use rand::Rng;
        let mut out = Vec::with_capacity(len + 3);
        while out.len() < len {
            match rng.gen_range(0..5) {
                0 => out.push(rng.gen()),
                1 => out.push(rng.gen_range(0x80..=0xff)),
                2 => out.extend_from_slice("é".as_bytes()),
                3 => out.push(b"TABSthis "[rng.gen_range(0..9)]),
                _ => out.push(rng.gen_range(b'a'..=b'z')),
            }
        }
        out.truncate(len);
        out
    }

    #[test]
    fn signature_found_at_every_offset_including_the_unaligned_tail() {
        let fps = churnlab_censor::blockpage::fingerprint_list();
        let m = BlockpageMatcher::new(&fps);
        for sig in &fps {
            let sig = sig.as_bytes();
            for len in sig.len()..sig.len() + 24 {
                for at in 0..=len - sig.len() {
                    let mut payload = vec![0xffu8; len];
                    payload[at..at + sig.len()].copy_from_slice(sig);
                    assert!(m.is_match(&payload), "len {len} at {at}");
                    // One byte short of the signature is no match.
                    payload[at + sig.len() - 1] ^= 0x20;
                    assert!(!m.is_match(&payload), "near miss len {len} at {at}");
                }
            }
        }
    }

    #[test]
    fn signature_split_across_segments_does_not_match() {
        let fps = churnlab_censor::blockpage::fingerprint_list();
        let m = BlockpageMatcher::new(&fps);
        let sig = fps[0].as_bytes();
        let timeout = FlowOutcome::HttpTimeout;
        assert!(detect_block(&data_capture(&[b"xx", sig]), &timeout, &m, None));
        for cut in 1..sig.len() {
            let cap = data_capture(&[&sig[..cut], &sig[cut..]]);
            assert!(!detect_block(&cap, &timeout, &m, None), "cut {cut}");
        }
    }

    #[test]
    fn empty_fingerprint_list_never_matches() {
        let m = BlockpageMatcher::new(&[]);
        let fps = churnlab_censor::blockpage::fingerprint_list();
        let everything: Vec<u8> = fps.iter().flat_map(|f| f.bytes()).chain(0..=255).collect();
        assert!(!m.is_match(&everything));
        assert!(!m.is_match(b""));
    }

    #[test]
    #[should_panic(expected = "must be non-empty ASCII")]
    fn non_ascii_signature_panics_at_construction() {
        BlockpageMatcher::new(&["Bu siteye erişim engellenmiştir"]);
    }

    #[test]
    #[should_panic(expected = "must be non-empty ASCII")]
    fn empty_signature_panics_at_construction() {
        BlockpageMatcher::new(&["Blocked", ""]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1000))]

        #[test]
        fn prop_matcher_agrees_with_lossy_rule(seed in proptest::prelude::any::<u64>()) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            // The real list, or random ASCII signatures that share first
            // bytes with each other and with the filler.
            let random: Vec<String> = (0..rng.gen_range(0..5))
                .map(|_| {
                    let n = rng.gen_range(1..12);
                    (0..n).map(|_| b"TABSthis <"[rng.gen_range(0..10)] as char).collect()
                })
                .collect();
            let fps: Vec<&str> = if rng.gen_bool(0.5) {
                churnlab_censor::blockpage::fingerprint_list()
            } else {
                random.iter().map(String::as_str).collect()
            };
            let m = BlockpageMatcher::new(&fps);
            let mut payloads: Vec<Vec<u8>> = Vec::new();
            for _ in 0..rng.gen_range(1..4) {
                let len = rng.gen_range(0..200);
                let mut p = filler(&mut rng, len);
                if !fps.is_empty() && rng.gen_bool(0.5) {
                    // Plant a signature, whole or cut short, anywhere,
                    // with non-ASCII bytes right against it.
                    let sig = fps[rng.gen_range(0..fps.len())].as_bytes();
                    let keep = if rng.gen_bool(0.7) { sig.len() } else { rng.gen_range(0..sig.len()) };
                    let at = rng.gen_range(0..=p.len());
                    let mut planted = vec![0xc3];
                    planted.extend_from_slice(&sig[..keep]);
                    planted.push(0xa9);
                    p.splice(at..at, planted);
                }
                proptest::prop_assert_eq!(m.is_match(&p), lossy_rule(&p, &fps), "{:?} in {:?}", fps, p);
                payloads.push(p);
            }
            let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            let per_segment = refs.iter().any(|p| lossy_rule(p, &fps));
            let cap = data_capture(&refs);
            proptest::prop_assert_eq!(detect_block(&cap, &FlowOutcome::HttpTimeout, &m, None), per_segment);
        }

        #[test]
        fn prop_html_probe_agrees_with_lowercased_lossy_text(seed in proptest::prelude::any::<u64>()) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            // Tag spellings, stray bytes ≥ 0x80, and non-ASCII letters
            // (Kelvin sign, dotless i) that only Unicode case folding
            // would take for ASCII.
            const PIECES: [&[u8]; 12] = [
                b"<html", b"<HTML", b"<HtMl", b"<htm", b"html", b"<", b"\xff", b"\xc3",
                "é".as_bytes(), "\u{212a}".as_bytes(), "ı".as_bytes(), b"<h\xe2\x80tml",
            ];
            let body: Vec<u8> = (0..rng.gen_range(0..12))
                .flat_map(|_| PIECES[rng.gen_range(0..PIECES.len())].iter().copied())
                .collect();
            let old = String::from_utf8_lossy(&body).to_ascii_lowercase().contains("<html");
            proptest::prop_assert_eq!(has_html_tag(&body), old, "{:?}", body);
        }
    }
}
