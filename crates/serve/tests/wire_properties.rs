//! Property tests of the wire decoders: `read_frame` over arbitrary byte
//! streams and `Request::parse` over arbitrary JSON trees. Hostile input
//! must come back as a typed error, never as a panic, and a length prefix
//! alone must not decide how much is read.

use flow3d_serve::{read_frame, write_frame, FrameError, Json, Request, MAX_FRAME};
use proptest::prelude::*;
use std::io::Cursor;

/// Decodes frames until the stream ends or fails. Every call consumes
/// input, so a stream of `n` bytes yields at most `n` frames.
fn drain(bytes: &[u8]) -> Result<usize, FrameError> {
    let mut cursor = Cursor::new(bytes);
    let mut frames = 0;
    while read_frame(&mut cursor)?.is_some() {
        frames += 1;
        assert!(frames <= bytes.len(), "decoder stopped consuming input");
    }
    Ok(frames)
}

#[test]
fn random_byte_streams_decode_or_fail_typed() {
    proptest!(ProptestConfig::with_cases(512), |(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    )| {
        let _ = drain(&bytes);
    });
}

/// Any length prefix up to `u32::MAX` followed by a short body is either
/// too large or a truncated frame: the decoder reads what is there and
/// reports the shortfall.
#[test]
fn huge_length_prefixes_with_short_bodies_fail_typed() {
    proptest!(ProptestConfig::with_cases(512), |(
        len in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
    )| {
        let mut bytes = len.to_be_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let got = read_frame(&mut Cursor::new(&bytes));
        let len = len as usize;
        if len > MAX_FRAME {
            prop_assert!(matches!(got, Err(FrameError::TooLarge(n)) if n == len));
        } else if body.len() < len {
            prop_assert!(
                matches!(&got, Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof),
                "{:?}", got
            );
        }
    });
    // The largest accepted prefix with one byte behind it.
    let mut bytes = (MAX_FRAME as u32).to_be_bytes().to_vec();
    bytes.push(b'{');
    assert!(matches!(
        read_frame(&mut Cursor::new(&bytes)),
        Err(FrameError::Io(_))
    ));
}

/// Builds a JSON tree from an entropy tape, with keys and strings drawn
/// mostly from the request vocabulary so the parser's deeper branches
/// are reached.
fn tree(tape: &mut std::slice::Iter<'_, u64>, depth: usize) -> Json {
    const WORDS: &[&str] = &[
        "cmd", "ping", "stats", "metrics", "shutdown", "unload", "load", "legalize", "eco", "name",
        "case", "legal", "global", "threads", "moves", "cell", "x", "y", "die", "commit", "trace",
        "id", "", "warp",
    ];
    let Some(&t) = tape.next() else {
        return Json::Null;
    };
    let word = || WORDS[(t >> 8) as usize % WORDS.len()].to_string();
    let num = match (t >> 8) % 6 {
        0 => -1.0,
        1 => 1e300,
        2 => 2.5,
        3 => u64::MAX as f64,
        4 => 64.0,
        _ => ((t >> 16) % 100) as f64,
    };
    let kind = if depth == 0 { t % 4 } else { t % 7 };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(t & 256 != 0),
        2 => Json::num(num),
        3 => Json::Str(word()),
        4 => Json::Arr((0..(t >> 12) % 4).map(|_| tree(tape, depth - 1)).collect()),
        _ => Json::Obj(
            (0..(t >> 12) % 6)
                .map(|i| {
                    let key = if i == 0 && (t >> 20) % 4 != 0 {
                        "cmd".to_string()
                    } else {
                        word()
                    };
                    (key, tree(tape, depth - 1))
                })
                .collect(),
        ),
    }
}

/// A request-shaped tree: an object whose `cmd` is usually a command
/// name, plus random fields.
fn request_tree(tape: &[u64]) -> Json {
    let (&head, rest) = tape.split_first().unwrap_or((&0, &[]));
    let mut rest = rest.iter();
    let cmd = match head % 8 {
        0 => tree(&mut rest, 2),
        k => Json::Str(
            [
                "ping", "load", "legalize", "eco", "unload", "stats", "shutdown",
            ][k as usize - 1]
                .into(),
        ),
    };
    let mut fields = vec![("cmd".to_string(), cmd)];
    while rest.len() > 0 {
        match tree(&mut rest, 3) {
            Json::Obj(more) => fields.extend(more),
            other => fields.push(("moves".to_string(), other)),
        }
    }
    Json::Obj(fields)
}

#[test]
fn random_json_trees_parse_or_fail_typed() {
    let mut parsed = 0usize;
    proptest!(ProptestConfig::with_cases(2048), |(
        tape in proptest::collection::vec(any::<u64>(), 1..48),
    )| {
        for json in [tree(&mut tape.iter(), 4), request_tree(&tape)] {
            if let Ok(request) = Request::parse(&json) {
                parsed += 1;
                let _ = (request.cmd(), request.is_queued(), request.case_name());
            }
            // The same tree through the frame layer.
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &json).unwrap();
            prop_assert_eq!(drain(&bytes).unwrap(), 1);
        }
    });
    assert!(
        parsed >= 100,
        "only {parsed} random trees parsed as requests"
    );
}
