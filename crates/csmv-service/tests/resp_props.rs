//! Fuzz-style property tests for the RESP framing layer: the parser
//! must never panic on any byte stream, must treat every prefix of a
//! valid frame as `Incomplete` (split reads), must round-trip every
//! well-formed command through arbitrary coalescing (pipelined reads),
//! and the connection-level MULTI state machine must answer nested /
//! orphaned control commands with errors, never silence.
//!
//! The in-place forms are held to what they replaced: `parse_frame_into`
//! to the owning parser ([`reference`], kept here as the oracle), the
//! appending encoders to the `format!` forms, and `Command::parse` on
//! borrowed, mixed-case words to a restatement of the vocabulary.

use csmv_service::command::{Command, VALUE_MAX};
use csmv_service::resp::{
    self, parse_frame, parse_frame_into, parse_reply, Framed, ParseOutcome, Reply, ReplyOutcome,
};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// The owning frame parser `parse_frame_into` replaced, as it was: every
/// argument copied out, the argv a fresh vector per frame.
mod reference {
    use csmv_service::resp::{ParseOutcome, MAX_ARRAY, MAX_BULK, MAX_INLINE};

    fn find_crlf(buf: &[u8], from: usize) -> Option<usize> {
        let mut i = from;
        while i + 1 < buf.len() {
            if buf[i] == b'\r' && buf[i + 1] == b'\n' {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    fn parse_int(digits: &[u8]) -> Result<i64, String> {
        let (neg, digits) = match digits.first() {
            Some(b'-') => (true, &digits[1..]),
            _ => (false, digits),
        };
        if digits.is_empty() || digits.len() > 18 {
            return Err("bad integer length".to_string());
        }
        let mut v: i64 = 0;
        for &d in digits {
            if !d.is_ascii_digit() {
                return Err("bad integer digit".to_string());
            }
            v = v * 10 + (d - b'0') as i64;
        }
        Ok(if neg { -v } else { v })
    }

    fn parse_header(buf: &[u8], pos: usize) -> Result<Option<(i64, usize)>, String> {
        match find_crlf(buf, pos + 1) {
            None if buf.len() - pos > 32 => Err("unterminated header line".to_string()),
            None => Ok(None),
            Some(at) => Ok(Some((parse_int(&buf[pos + 1..at])?, at + 2))),
        }
    }

    pub fn parse_frame(buf: &[u8]) -> ParseOutcome {
        if buf.is_empty() {
            return ParseOutcome::Incomplete;
        }
        if buf[0] != b'*' {
            return parse_inline(buf);
        }
        let (n, mut pos) = match parse_header(buf, 0) {
            Err(e) => return ParseOutcome::Error(e),
            Ok(None) => return ParseOutcome::Incomplete,
            Ok(Some((n, pos))) => (n, pos),
        };
        if n < 0 || n as usize > MAX_ARRAY {
            return ParseOutcome::Error(format!("bad array length {n}"));
        }
        let mut argv = Vec::with_capacity(n as usize);
        for _ in 0..n {
            if pos >= buf.len() {
                return ParseOutcome::Incomplete;
            }
            if buf[pos] != b'$' {
                return ParseOutcome::Error(format!(
                    "expected bulk string, got type byte {:?}",
                    buf[pos] as char
                ));
            }
            let (len, body) = match parse_header(buf, pos) {
                Err(e) => return ParseOutcome::Error(e),
                Ok(None) => return ParseOutcome::Incomplete,
                Ok(Some(v)) => v,
            };
            if len < 0 || len as usize > MAX_BULK {
                return ParseOutcome::Error(format!("bad bulk length {len}"));
            }
            let len = len as usize;
            if buf.len() < body + len + 2 {
                return ParseOutcome::Incomplete;
            }
            if &buf[body + len..body + len + 2] != b"\r\n" {
                return ParseOutcome::Error("bulk string not CRLF-terminated".to_string());
            }
            argv.push(buf[body..body + len].to_vec());
            pos = body + len + 2;
        }
        ParseOutcome::Frame(argv, pos)
    }

    fn parse_inline(buf: &[u8]) -> ParseOutcome {
        let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
            return if buf.len() > MAX_INLINE {
                ParseOutcome::Error("inline command too long".to_string())
            } else {
                ParseOutcome::Incomplete
            };
        };
        if nl + 1 > MAX_INLINE {
            return ParseOutcome::Error("inline command too long".to_string());
        }
        let line = &buf[..nl];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let argv: Vec<Vec<u8>> = line
            .split(|&b| b == b' ' || b == b'\t')
            .filter(|w| !w.is_empty())
            .map(|w| w.to_vec())
            .collect();
        ParseOutcome::Frame(argv, nl + 1)
    }
}

/// `parse_frame_into` on `buf`, with `args` holding stale ranges from
/// before, as the owned outcome it stands for.
fn parse_in_place(buf: &[u8], args: &mut Vec<std::ops::Range<usize>>) -> ParseOutcome {
    args.push(0..buf.len());
    match parse_frame_into(buf, args) {
        Framed::Frame(used) => {
            ParseOutcome::Frame(args.iter().map(|r| buf[r.clone()].to_vec()).collect(), used)
        }
        Framed::Incomplete => ParseOutcome::Incomplete,
        Framed::Error(e) => ParseOutcome::Error(e),
    }
}

/// One of `items`, uniformly.
fn select<T: Clone + std::fmt::Debug>(items: Vec<T>) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i].clone())
}

/// Any `u64`, small ones as often as the rest.
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![proptest::num::u64::ANY, 0u64..1000]
}

/// Bytes drawn mostly from what frames are made of, so inline lines,
/// tabs, blank lines, headers and bulk strings all come up.
fn arb_framing_bytes() -> impl Strategy<Value = Vec<u8>> {
    pvec(
        select(b"  \t\r\n\r\n*$:+-0123456789GETSETget x".to_vec()),
        0usize..96,
    )
}

/// An inline command line: one to five alphanumeric words, separated by
/// spaces and tabs.
fn arb_inline_line() -> impl Strategy<Value = Vec<u8>> {
    pvec(pvec(select(b"aZ09xGET".to_vec()), 1usize..7), 1usize..6)
        .prop_map(|words| words.join(&b" \t"[..]))
}

/// The `format!` forms the appending encoders replaced.
fn integer_by_format(v: i64) -> Vec<u8> {
    format!(":{v}\r\n").into_bytes()
}

fn bulk_u64_by_format(v: u64) -> Vec<u8> {
    let digits = v.to_string();
    format!("${}\r\n{digits}\r\n", digits.len()).into_bytes()
}

fn array_header_by_format(len: usize) -> Vec<u8> {
    format!("*{len}\r\n").into_bytes()
}

/// Each appending encoder, after `prefix`, against its `format!` form.
fn check_encoders(prefix: &[u8], int: i64, val: u64, len: usize) {
    let appended = |put: &dyn Fn(&mut Vec<u8>)| {
        let mut out = prefix.to_vec();
        put(&mut out);
        out
    };
    let after = |tail: Vec<u8>| [prefix, &tail].concat();
    assert_eq!(
        appended(&|o| resp::put_integer(o, int)),
        after(integer_by_format(int)),
        "integer {int}"
    );
    assert_eq!(
        appended(&|o| resp::put_bulk_u64(o, val)),
        after(bulk_u64_by_format(val)),
        "bulk {val}"
    );
    assert_eq!(
        appended(&|o| resp::put_array_header(o, len)),
        after(array_header_by_format(len)),
        "array header {len}"
    );
    assert_eq!(resp::integer(int), integer_by_format(int));
    assert_eq!(resp::array_header(len), array_header_by_format(len));
}

#[test]
fn appending_encoders_match_the_format_forms_at_the_edges() {
    let unsigned = [
        0,
        9,
        10,
        99,
        100,
        u32::MAX as u64,
        u32::MAX as u64 + 1,
        i64::MAX as u64,
        u64::MAX,
    ];
    let signed = [0, 9, 10, -1, -9, -10, i64::MIN, i64::MIN + 1, i64::MAX];
    for &val in &unsigned {
        for &int in &signed {
            check_encoders(b"+OK\r\n", int, val, val as usize);
        }
    }
    // Error text without a line break is copied as it is.
    for text in ["", "ERR x", "RETRY retry_budget_exhausted", "BUSY é"] {
        assert_eq!(resp::error(text), format!("-{text}\r\n").into_bytes());
    }
}

/// The vocabulary restated: what `Command::parse` answered when it matched
/// an upper-cased copy of the name.
fn command_oracle(argv: &[Vec<u8>]) -> Result<Command, String> {
    let Some(name) = argv.first() else {
        return Err("ERR empty command".to_string());
    };
    let name = String::from_utf8_lossy(&name.to_ascii_uppercase()).into_owned();
    let want = match name.as_str() {
        "PING" | "MULTI" | "EXEC" | "DISCARD" | "SHUTDOWN" => 1,
        "GET" => 2,
        "SET" | "INCRBY" => 3,
        _ => return Err(format!("ERR unknown command '{name}'")),
    };
    if argv.len() != want {
        return Err(format!(
            "ERR wrong number of arguments for '{}'",
            name.to_ascii_lowercase()
        ));
    }
    let text = |i: usize| std::str::from_utf8(&argv[i]).ok();
    let key = || {
        text(1)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| "ERR key is not an unsigned integer".to_string())
    };
    Ok(match name.as_str() {
        "PING" => Command::Ping,
        "MULTI" => Command::Multi,
        "EXEC" => Command::Exec,
        "DISCARD" => Command::Discard,
        "SHUTDOWN" => Command::Shutdown,
        "GET" => Command::Get(key()?),
        "SET" => {
            let key = key()?;
            let value = text(2)
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| "ERR value is not an unsigned integer".to_string())?;
            if value > VALUE_MAX {
                return Err(format!("ERR value is out of range (0..={VALUE_MAX})"));
            }
            Command::Set(key, value)
        }
        _ => Command::IncrBy(
            key()?,
            text(2)
                .and_then(|s| s.parse::<i64>().ok())
                .ok_or_else(|| "ERR delta is not an integer".to_string())?,
        ),
    })
}

/// An argv of a known or unknown name in random case, with up to seven
/// words after it.
fn arb_command() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let names = select(vec![
        "get", "set", "incrby", "ping", "multi", "exec", "discard", "shutdown", "hgetall",
        "x\r\n+ok", "gett", "",
    ]);
    let words = select(vec![
        "0",
        "7",
        "-5",
        "4294967295",
        "4294967296",
        "18446744073709551616",
        "abc",
        "",
    ]);
    (names, 0u16..=u16::MAX, pvec(words, 0usize..8)).prop_map(|(name, case, args)| {
        let name: Vec<u8> = name
            .bytes()
            .enumerate()
            .map(|(i, b)| {
                if case >> (i % 16) & 1 == 1 {
                    b.to_ascii_uppercase()
                } else {
                    b
                }
            })
            .collect();
        std::iter::once(name)
            .chain(args.into_iter().map(|w| w.as_bytes().to_vec()))
            .collect()
    })
}

/// An arbitrary well-formed command argv (possibly empty words, binary
/// bytes — the framing layer doesn't care about command semantics).
fn arb_argv() -> impl Strategy<Value = Vec<Vec<u8>>> {
    pvec(pvec(0u8..=255, 0usize..24), 1usize..6)
}

/// A pipelined wire image of several commands plus the frame boundaries.
fn encode_all(cmds: &[Vec<Vec<u8>>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for argv in cmds {
        wire.extend(resp::encode_command(argv));
    }
    wire
}

/// Parse as many frames as possible from `buf`, feeding `chunk`-sized
/// slices as a socket would.
fn parse_chunked(wire: &[u8], chunk: usize) -> Vec<Vec<Vec<u8>>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut out = Vec::new();
    let mut fed = 0;
    loop {
        loop {
            match parse_frame(&buf) {
                ParseOutcome::Frame(argv, used) => {
                    buf.drain(..used);
                    out.push(argv);
                }
                ParseOutcome::Incomplete => break,
                ParseOutcome::Error(e) => panic!("well-formed stream errored: {e}"),
            }
        }
        if fed >= wire.len() {
            return out;
        }
        let take = chunk.max(1).min(wire.len() - fed);
        buf.extend_from_slice(&wire[fed..fed + take]);
        fed += take;
    }
}

proptest! {
    /// The parser never panics and never over-consumes, whatever bytes
    /// arrive.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in pvec(0u8..=255, 0usize..256)) {
        match parse_frame(&bytes) {
            ParseOutcome::Frame(_, used) => prop_assert!(used <= bytes.len()),
            ParseOutcome::Incomplete | ParseOutcome::Error(_) => {}
        }
        match parse_reply(&bytes) {
            ReplyOutcome::Reply(_, used) => prop_assert!(used <= bytes.len()),
            ReplyOutcome::Incomplete | ReplyOutcome::Error(_) => {}
        }
    }

    /// Every proper prefix of a well-formed frame is `Incomplete` —
    /// split reads can never produce an error or a short frame.
    #[test]
    fn every_split_of_a_frame_is_incomplete(argv in arb_argv()) {
        let wire = resp::encode_command(&argv);
        for cut in 0..wire.len() {
            prop_assert_eq!(
                parse_frame(&wire[..cut]),
                ParseOutcome::Incomplete,
                "cut at {}", cut
            );
        }
        match parse_frame(&wire) {
            ParseOutcome::Frame(got, used) => {
                prop_assert_eq!(used, wire.len());
                prop_assert_eq!(got, argv);
            }
            other => prop_assert!(false, "{:?}", other),
        }
    }

    /// Pipelined commands round-trip through arbitrary read coalescing:
    /// any chunk size recovers exactly the original frame sequence.
    #[test]
    fn pipelined_streams_round_trip_at_any_chunking(
        cmds in pvec(arb_argv(), 1usize..5),
        chunk in 1usize..64,
    ) {
        let wire = encode_all(&cmds);
        let got = parse_chunked(&wire, chunk);
        prop_assert_eq!(got, cmds);
    }

    /// Trailing garbage after well-formed frames never corrupts the
    /// frames already parsed.
    #[test]
    fn garbage_after_frames_does_not_corrupt_them(
        cmds in pvec(arb_argv(), 1usize..4),
        garbage in pvec(0u8..=255, 0usize..32),
    ) {
        let mut wire = encode_all(&cmds);
        wire.extend_from_slice(&garbage);
        let mut pos = 0;
        for want in &cmds {
            match parse_frame(&wire[pos..]) {
                ParseOutcome::Frame(got, used) => {
                    prop_assert_eq!(&got, want);
                    pos += used;
                }
                other => {
                    prop_assert!(false, "{:?}", other);
                }
            }
        }
    }

    /// The in-place parser and its owning wrapper agree with the owning
    /// parser they replaced, on bytes made of framing characters and on
    /// arbitrary bytes, at every split point.
    #[test]
    fn the_in_place_parser_agrees_with_the_owning_one_at_every_split(
        framing in arb_framing_bytes(),
        arbitrary in pvec(0u8..=255, 0usize..64),
    ) {
        let mut args = Vec::new();
        for bytes in [&framing, &arbitrary] {
            for cut in 0..=bytes.len() {
                let want = reference::parse_frame(&bytes[..cut]);
                prop_assert_eq!(&parse_in_place(&bytes[..cut], &mut args), &want, "cut at {}", cut);
                prop_assert_eq!(&parse_frame(&bytes[..cut]), &want, "cut at {}", cut);
            }
        }
    }

    /// Well-formed array frames and inline lines, pipelined, parse alike
    /// from an offset into one buffer — the way the reader parses — and
    /// off the front of a buffer drained frame by frame.
    #[test]
    fn a_pipelined_stream_parses_alike_in_place(
        cmds in pvec(arb_argv(), 1usize..5),
        inline in pvec(arb_inline_line(), 0usize..4),
    ) {
        let mut wire = encode_all(&cmds);
        for line in &inline {
            wire.extend_from_slice(line);
            wire.extend_from_slice(b"\r\n\r\n");
        }
        let mut args = Vec::new();
        let mut at = 0;
        while at < wire.len() {
            let want = reference::parse_frame(&wire[at..]);
            let got = parse_in_place(&wire[at..], &mut args);
            prop_assert_eq!(&got, &want);
            let ParseOutcome::Frame(_, used) = got else {
                return Err(TestCaseError::fail(format!("{got:?} at {at}")));
            };
            at += used;
        }
    }

    /// The appending encoders write what the `format!` forms wrote.
    #[test]
    fn appending_encoders_match_the_format_forms(
        prefix in pvec(0u8..=255, 0usize..8),
        (int, negate) in (arb_u64(), 0u8..2),
        val in arb_u64(),
        len in 0usize..(1 << 20),
        text in pvec(select(vec!['a', 'Z', ' ', '\t', 'é', '\'', '-', '0']), 0usize..24),
    ) {
        let int = if negate == 1 { (int as i64).wrapping_neg() } else { int as i64 };
        check_encoders(&prefix, int, val, len);
        let text: String = text.into_iter().collect();
        prop_assert_eq!(resp::error(&text), format!("-{text}\r\n").into_bytes());
    }

    /// `Command::parse` answers owned and borrowed words alike, in any
    /// case, and as the vocabulary says — arity errors of argvs longer
    /// than the reader's inline four words included.
    #[test]
    fn commands_parse_as_before_owned_or_borrowed(argv in arb_command()) {
        let want = command_oracle(&argv);
        prop_assert_eq!(&Command::parse(&argv), &want);
        let borrowed: Vec<&[u8]> = argv.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(&Command::parse(&borrowed), &want);
    }

    /// Replies round-trip, including nested EXEC arrays.
    #[test]
    fn encoded_replies_round_trip(values in pvec(0u64..1_000_000, 1usize..6)) {
        let mut wire = resp::array_header(values.len());
        for (i, v) in values.iter().enumerate() {
            // Alternate encodings the service actually emits.
            wire.extend(match i % 3 {
                0 => resp::bulk(v.to_string().as_bytes()),
                1 => resp::integer(*v as i64),
                _ => resp::simple("OK"),
            });
        }
        match parse_reply(&wire) {
            ReplyOutcome::Reply(Reply::Array(items), used) => {
                prop_assert_eq!(used, wire.len());
                prop_assert_eq!(items.len(), values.len());
            }
            other => prop_assert!(false, "{:?}", other),
        }
    }
}

/// Nested/orphaned MULTI misuse over a live connection: every control
/// error is a typed reply, and the connection keeps serving afterwards.
#[test]
fn multi_misuse_over_a_live_connection_yields_typed_errors() {
    use csmv_service::{serve, ServiceConfig};
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let cfg = ServiceConfig {
        keys: 8,
        ..Default::default()
    };
    let stop = Arc::new(AtomicBool::new(false));
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            serve(&cfg, "127.0.0.1:0", stop, |a| {
                let _ = addr_tx.send(a);
            })
        })
    };
    let addr = addr_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .unwrap();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();

    // MULTI, nested MULTI (error), DISCARD, DISCARD again (error),
    // EXEC with nothing open (error), then a normal command — pipelined
    // partly as inline commands to cross framing styles.
    let mut wire = Vec::new();
    wire.extend(resp::encode_command(&[b"MULTI".as_ref()]));
    wire.extend_from_slice(b"MULTI\r\n");
    wire.extend(resp::encode_command(&[b"DISCARD".as_ref()]));
    wire.extend_from_slice(b"DISCARD\r\n");
    wire.extend(resp::encode_command(&[b"EXEC".as_ref()]));
    wire.extend_from_slice(b"SET 2 5\r\n");
    wire.extend(resp::encode_command(&[b"SHUTDOWN".as_ref()]));
    stream.write_all(&wire).unwrap();

    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let mut replies = Vec::new();
    while replies.len() < 7 {
        match parse_reply(&buf) {
            ReplyOutcome::Reply(r, used) => {
                buf.drain(..used);
                replies.push(r);
                continue;
            }
            ReplyOutcome::Incomplete => {}
            ReplyOutcome::Error(e) => panic!("bad reply stream: {e}"),
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed early: got {replies:?}");
        buf.extend_from_slice(&chunk[..n]);
    }
    assert_eq!(replies[0], Reply::Simple("OK".into()));
    assert!(matches!(&replies[1], Reply::Error(e) if e.contains("nested")));
    assert_eq!(replies[2], Reply::Simple("OK".into()));
    assert!(matches!(&replies[3], Reply::Error(e) if e.contains("DISCARD without MULTI")));
    assert!(matches!(&replies[4], Reply::Error(e) if e.contains("EXEC without MULTI")));
    assert_eq!(replies[5], Reply::Simple("OK".into()));
    assert_eq!(replies[6], Reply::Simple("OK".into()));
    server.join().unwrap().expect("serve failed");
}
