//! RESP (REdis Serialization Protocol) framing: an incremental,
//! never-panicking parser for client command frames and server replies,
//! plus the matching encoders.
//!
//! The parser is pure over a byte slice and reports how many bytes it
//! consumed, so callers own the buffering strategy: append whatever the
//! socket produced, parse frames off the front, drain the consumed
//! prefix. Partial input is `Incomplete` (never an error), malformed
//! input is a terminal `Error` (the connection must close), and both
//! array frames (`*2\r\n$3\r\nGET\r\n$1\r\n7\r\n`) and inline commands
//! (`GET 7\r\n`) are accepted, as in Redis.
//!
//! The server's side allocates nothing per request: [`parse_frame_into`]
//! reports a frame's arguments as ranges of the caller's buffer, in a
//! vector the caller reuses, and the `put_*` encoders append a reply to
//! the caller's output buffer. [`parse_frame`] and the encoders that
//! return a `Vec` are wrappers over them for callers that want owned
//! bytes.

use std::ops::Range;

/// Largest accepted bulk-string payload. Anything bigger is a protocol
/// error, not an allocation request — the bound is what keeps a hostile
/// peer from turning a length prefix into unbounded memory growth.
pub const MAX_BULK: usize = 1 << 20;
/// Largest accepted command arity.
pub const MAX_ARRAY: usize = 1 << 10;
/// Longest accepted inline command line (terminator included).
pub const MAX_INLINE: usize = 1 << 16;
/// Deepest accepted reply nesting (arrays of arrays).
const MAX_DEPTH: usize = 8;

/// `+OK\r\n`
pub const OK: &[u8] = b"+OK\r\n";
/// `+QUEUED\r\n`
pub const QUEUED: &[u8] = b"+QUEUED\r\n";
/// `+PONG\r\n`
pub const PONG: &[u8] = b"+PONG\r\n";

/// Result of parsing one command frame off the front of a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// A complete command (argv of byte strings) consuming this many
    /// bytes. An empty argv (blank inline line) should be skipped.
    Frame(Vec<Vec<u8>>, usize),
    /// More bytes are needed.
    Incomplete,
    /// The stream is not valid RESP; the connection must close.
    Error(String),
}

/// Result of [`parse_frame_into`]: [`ParseOutcome`] with the argv left in
/// the caller's vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Framed {
    /// A complete command consuming this many bytes; its arguments are the
    /// ranges written to the caller's vector. No ranges (a blank inline
    /// line) means the frame should be skipped.
    Frame(usize),
    /// More bytes are needed.
    Incomplete,
    /// The stream is not valid RESP; the connection must close.
    Error(String),
}

/// One parsed server reply (what a client of the service sees).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `+OK\r\n`-style simple string.
    Simple(String),
    /// `-ERR ...\r\n` error string.
    Error(String),
    /// `:42\r\n` integer.
    Integer(i64),
    /// `$n\r\n...\r\n` bulk string.
    Bulk(Vec<u8>),
    /// `$-1\r\n` null bulk.
    Nil,
    /// `*n\r\n...` array of replies.
    Array(Vec<Reply>),
}

/// Result of parsing one reply off the front of a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyOutcome {
    /// A complete reply consuming this many bytes.
    Reply(Reply, usize),
    /// More bytes are needed.
    Incomplete,
    /// The stream is not valid RESP.
    Error(String),
}

/// Find the first CRLF at or after `from`; `None` if the buffer ends
/// before one appears.
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

/// Parse a decimal integer line ending at `end` (exclusive). Accepts an
/// optional leading `-`; rejects empty digits, junk, and overflow.
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

/// Parse one `<type byte><int>\r\n` header line starting at `pos`.
/// Returns `(value, next_pos)`.
fn parse_header(buf: &[u8], pos: usize) -> Result<Option<(i64, usize)>, String> {
    match find_crlf(buf, pos + 1) {
        None => {
            // Unterminated header: bound how long we will wait for it.
            if buf.len() - pos > 32 {
                Err("unterminated header line".to_string())
            } else {
                Ok(None)
            }
        }
        Some(at) => {
            let v = parse_int(&buf[pos + 1..at])?;
            Ok(Some((v, at + 2)))
        }
    }
}

/// Parse one command frame (array-of-bulks or inline) off the front of
/// `buf`, writing its arguments to `args` as ranges of `buf` (whatever
/// `args` held is cleared first). Never panics on any input.
pub fn parse_frame_into(buf: &[u8], args: &mut Vec<Range<usize>>) -> Framed {
    args.clear();
    if buf.is_empty() {
        return Framed::Incomplete;
    }
    if buf[0] != b'*' {
        return parse_inline(buf, args);
    }
    let (n, mut pos) = match parse_header(buf, 0) {
        Err(e) => return Framed::Error(e),
        Ok(None) => return Framed::Incomplete,
        Ok(Some((n, pos))) => (n, pos),
    };
    if n < 0 || n as usize > MAX_ARRAY {
        return Framed::Error(format!("bad array length {n}"));
    }
    for _ in 0..n {
        if pos >= buf.len() {
            return Framed::Incomplete;
        }
        if buf[pos] != b'$' {
            return Framed::Error(format!(
                "expected bulk string, got type byte {:?}",
                buf[pos] as char
            ));
        }
        let (len, body) = match parse_header(buf, pos) {
            Err(e) => return Framed::Error(e),
            Ok(None) => return Framed::Incomplete,
            Ok(Some(v)) => v,
        };
        if len < 0 || len as usize > MAX_BULK {
            return Framed::Error(format!("bad bulk length {len}"));
        }
        let len = len as usize;
        if buf.len() < body + len + 2 {
            return Framed::Incomplete;
        }
        if &buf[body + len..body + len + 2] != b"\r\n" {
            return Framed::Error("bulk string not CRLF-terminated".to_string());
        }
        args.push(body..body + len);
        pos = body + len + 2;
    }
    Framed::Frame(pos)
}

/// Inline commands: a single line, whitespace-separated words. A blank
/// line parses as an empty argv (callers skip it), matching Redis.
fn parse_inline(buf: &[u8], args: &mut Vec<Range<usize>>) -> Framed {
    let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
        return if buf.len() > MAX_INLINE {
            Framed::Error("inline command too long".to_string())
        } else {
            Framed::Incomplete
        };
    };
    if nl + 1 > MAX_INLINE {
        return Framed::Error("inline command too long".to_string());
    }
    let end = if nl > 0 && buf[nl - 1] == b'\r' {
        nl - 1
    } else {
        nl
    };
    let mut word = None;
    for (i, &b) in buf[..end].iter().enumerate() {
        match (b == b' ' || b == b'\t', word) {
            (true, Some(start)) => {
                args.push(start..i);
                word = None;
            }
            (false, None) => word = Some(i),
            _ => {}
        }
    }
    if let Some(start) = word {
        args.push(start..end);
    }
    Framed::Frame(nl + 1)
}

/// Parse one command frame off the front of `buf` into an owned argv:
/// [`parse_frame_into`] with each argument copied out.
pub fn parse_frame(buf: &[u8]) -> ParseOutcome {
    let mut args = Vec::new();
    match parse_frame_into(buf, &mut args) {
        Framed::Frame(used) => {
            ParseOutcome::Frame(args.into_iter().map(|r| buf[r].to_vec()).collect(), used)
        }
        Framed::Incomplete => ParseOutcome::Incomplete,
        Framed::Error(e) => ParseOutcome::Error(e),
    }
}

/// Parse one reply off the front of `buf`. Never panics on any input.
pub fn parse_reply(buf: &[u8]) -> ReplyOutcome {
    parse_reply_at(buf, 0, 0)
}

fn parse_reply_at(buf: &[u8], pos: usize, depth: usize) -> ReplyOutcome {
    if depth > MAX_DEPTH {
        return ReplyOutcome::Error("reply nesting too deep".to_string());
    }
    let Some(&kind) = buf.get(pos) else {
        return ReplyOutcome::Incomplete;
    };
    match kind {
        b'+' | b'-' => {
            let Some(at) = find_crlf(buf, pos + 1) else {
                return if buf.len() - pos > MAX_INLINE {
                    ReplyOutcome::Error("unterminated simple string".to_string())
                } else {
                    ReplyOutcome::Incomplete
                };
            };
            let text = String::from_utf8_lossy(&buf[pos + 1..at]).into_owned();
            let reply = if kind == b'+' {
                Reply::Simple(text)
            } else {
                Reply::Error(text)
            };
            ReplyOutcome::Reply(reply, at + 2 - pos)
        }
        b':' => match parse_header(buf, pos) {
            Err(e) => ReplyOutcome::Error(e),
            Ok(None) => ReplyOutcome::Incomplete,
            Ok(Some((v, next))) => ReplyOutcome::Reply(Reply::Integer(v), next - pos),
        },
        b'$' => {
            let (len, body) = match parse_header(buf, pos) {
                Err(e) => return ReplyOutcome::Error(e),
                Ok(None) => return ReplyOutcome::Incomplete,
                Ok(Some(v)) => v,
            };
            if len == -1 {
                return ReplyOutcome::Reply(Reply::Nil, body - pos);
            }
            if len < 0 || len as usize > MAX_BULK {
                return ReplyOutcome::Error(format!("bad bulk length {len}"));
            }
            let len = len as usize;
            if buf.len() < body + len + 2 {
                return ReplyOutcome::Incomplete;
            }
            if &buf[body + len..body + len + 2] != b"\r\n" {
                return ReplyOutcome::Error("bulk reply not CRLF-terminated".to_string());
            }
            ReplyOutcome::Reply(
                Reply::Bulk(buf[body..body + len].to_vec()),
                body + len + 2 - pos,
            )
        }
        b'*' => {
            let (n, mut at) = match parse_header(buf, pos) {
                Err(e) => return ReplyOutcome::Error(e),
                Ok(None) => return ReplyOutcome::Incomplete,
                Ok(Some(v)) => v,
            };
            if n < 0 || n as usize > MAX_ARRAY {
                return ReplyOutcome::Error(format!("bad array length {n}"));
            }
            let mut items = Vec::with_capacity(n as usize);
            for _ in 0..n {
                match parse_reply_at(buf, at, depth + 1) {
                    ReplyOutcome::Reply(r, used) => {
                        items.push(r);
                        at += used;
                    }
                    other => return other,
                }
            }
            ReplyOutcome::Reply(Reply::Array(items), at - pos)
        }
        other => ReplyOutcome::Error(format!("unknown reply type byte {:?}", other as char)),
    }
}

/// Encode a command as an array of bulk strings (the canonical client
/// framing; what `parse_frame` round-trips).
pub fn encode_command<A: AsRef<[u8]>>(args: &[A]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(format!("*{}\r\n", args.len()).as_bytes());
    for a in args {
        let a = a.as_ref();
        out.extend_from_slice(format!("${}\r\n", a.len()).as_bytes());
        out.extend_from_slice(a);
        out.extend_from_slice(b"\r\n");
    }
    out
}

/// The decimal digits of `value`, written to the tail of `digits`.
fn decimal(value: u64, digits: &mut [u8; 20]) -> &[u8] {
    let mut v = value;
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return &digits[at..];
        }
    }
}

/// Append `<kind>[-]<magnitude>\r\n`: an integer or a length header.
fn put_line(out: &mut Vec<u8>, kind: u8, negative: bool, magnitude: u64) {
    out.push(kind);
    if negative {
        out.push(b'-');
    }
    out.extend_from_slice(decimal(magnitude, &mut [0; 20]));
    out.extend_from_slice(b"\r\n");
}

/// Append `:value\r\n`.
pub fn put_integer(out: &mut Vec<u8>, value: i64) {
    put_line(out, b':', value < 0, value.unsigned_abs());
}

/// Append `*len\r\n` (the element encodings follow).
pub fn put_array_header(out: &mut Vec<u8>, len: usize) {
    put_line(out, b'*', false, len as u64);
}

/// Append `$len\r\nbody\r\n`.
fn put_bulk(out: &mut Vec<u8>, body: &[u8]) {
    put_line(out, b'$', false, body.len() as u64);
    out.extend_from_slice(body);
    out.extend_from_slice(b"\r\n");
}

/// Append the bulk string of `value` in decimal: what a `GET` answers.
pub fn put_bulk_u64(out: &mut Vec<u8>, value: u64) {
    put_bulk(out, decimal(value, &mut [0; 20]));
}

/// Append `-text\r\n`, the text being `parts` back to back. Every CR or
/// LF in it becomes a space, as in Redis: an error reply is one line, and
/// a line break in it — a client's own command name echoed back — would
/// inject replies the client never asked for.
pub fn put_error(out: &mut Vec<u8>, parts: &[&str]) {
    out.push(b'-');
    for part in parts {
        out.extend(
            part.bytes()
                .map(|b| if b == b'\r' || b == b'\n' { b' ' } else { b }),
        );
    }
    out.extend_from_slice(b"\r\n");
}

/// `+text\r\n`
pub fn simple(text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(text.len() + 3);
    out.push(b'+');
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(b"\r\n");
    out
}

/// `-text\r\n` (see [`put_error`]).
pub fn error(text: &str) -> Vec<u8> {
    let mut out = Vec::new();
    put_error(&mut out, &[text]);
    out
}

/// `:value\r\n`
pub fn integer(value: i64) -> Vec<u8> {
    let mut out = Vec::new();
    put_integer(&mut out, value);
    out
}

/// `$len\r\nbody\r\n`
pub fn bulk(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_bulk(&mut out, body);
    out
}

/// `*len\r\n` (the element encodings follow).
pub fn array_header(len: usize) -> Vec<u8> {
    let mut out = Vec::new();
    put_array_header(&mut out, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_frame_round_trips() {
        let wire = encode_command(&[b"SET".as_ref(), b"7", b"42"]);
        match parse_frame(&wire) {
            ParseOutcome::Frame(argv, used) => {
                assert_eq!(used, wire.len());
                assert_eq!(argv, vec![b"SET".to_vec(), b"7".to_vec(), b"42".to_vec()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partial_frames_are_incomplete_at_every_split() {
        let wire = encode_command(&[b"INCRBY".as_ref(), b"3", b"-5"]);
        for cut in 0..wire.len() {
            match parse_frame(&wire[..cut]) {
                ParseOutcome::Incomplete => {}
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn inline_commands_parse_and_blank_lines_are_empty() {
        match parse_frame(b"GET 12\r\nleftover") {
            ParseOutcome::Frame(argv, used) => {
                assert_eq!(argv, vec![b"GET".to_vec(), b"12".to_vec()]);
                assert_eq!(used, 8);
            }
            other => panic!("{other:?}"),
        }
        match parse_frame(b"\r\n") {
            ParseOutcome::Frame(argv, 2) => assert!(argv.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arguments_are_ranges_of_the_buffer_and_the_vector_is_reused() {
        let mut args = vec![0..99, 1..2];
        assert_eq!(
            parse_frame_into(b" \tSET\t 7  42 \r\n*1", &mut args),
            Framed::Frame(15)
        );
        assert_eq!(args, [2..5, 7..8, 10..12]);
        let wire = encode_command(&[b"GET".as_ref(), b"12"]);
        assert_eq!(
            parse_frame_into(&wire, &mut args),
            Framed::Frame(wire.len())
        );
        assert_eq!(args, [8..11, 17..19]);
    }

    #[test]
    fn hostile_lengths_are_errors_not_allocations() {
        assert!(matches!(
            parse_frame(b"*99999999\r\n"),
            ParseOutcome::Error(_)
        ));
        assert!(matches!(
            parse_frame(b"*1\r\n$99999999\r\n"),
            ParseOutcome::Error(_)
        ));
        assert!(matches!(
            parse_frame(b"*1\r\n:5\r\n"),
            ParseOutcome::Error(_)
        ));
        assert!(matches!(
            parse_frame(b"*1\r\n$3\r\nabcXX"),
            ParseOutcome::Error(_)
        ));
    }

    #[test]
    fn replies_round_trip() {
        let cases: Vec<(Vec<u8>, Reply)> = vec![
            (simple("OK"), Reply::Simple("OK".into())),
            (
                error("RETRY server_timeout"),
                Reply::Error("RETRY server_timeout".into()),
            ),
            (integer(-7), Reply::Integer(-7)),
            (bulk(b"42"), Reply::Bulk(b"42".to_vec())),
            (b"$-1\r\n".to_vec(), Reply::Nil),
        ];
        for (wire, want) in cases {
            match parse_reply(&wire) {
                ReplyOutcome::Reply(got, used) => {
                    assert_eq!(got, want);
                    assert_eq!(used, wire.len());
                }
                other => panic!("{other:?}"),
            }
        }
        let mut arr = array_header(2);
        arr.extend(simple("OK"));
        arr.extend(integer(3));
        match parse_reply(&arr) {
            ReplyOutcome::Reply(Reply::Array(items), used) => {
                assert_eq!(used, arr.len());
                assert_eq!(items, vec![Reply::Simple("OK".into()), Reply::Integer(3)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn an_error_reply_is_one_line_whatever_its_text() {
        assert_eq!(
            error("ERR unknown command 'X\r\n+OK'"),
            b"-ERR unknown command 'X  +OK'\r\n"
        );
        let mut out = b"+OK\r\n".to_vec();
        put_error(&mut out, &["RETRY ", "a\nb"]);
        assert_eq!(out, b"+OK\r\n-RETRY a b\r\n");
    }

    #[test]
    fn the_reply_constants_are_the_simple_strings() {
        assert_eq!(OK, simple("OK"));
        assert_eq!(QUEUED, simple("QUEUED"));
        assert_eq!(PONG, simple("PONG"));
    }

    #[test]
    fn pipelined_frames_parse_one_at_a_time() {
        let mut wire = encode_command(&[b"GET".as_ref(), b"1"]);
        wire.extend(encode_command(&[b"SET".as_ref(), b"2", b"9"]));
        let ParseOutcome::Frame(a, used) = parse_frame(&wire) else {
            panic!()
        };
        assert_eq!(a[0], b"GET");
        let ParseOutcome::Frame(b, used2) = parse_frame(&wire[used..]) else {
            panic!()
        };
        assert_eq!(b[0], b"SET");
        assert_eq!(used + used2, wire.len());
    }
}
