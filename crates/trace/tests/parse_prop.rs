//! Property tests for the trace dump's line parser, `Event::parse_line`,
//! on text from outside: arbitrary strings, soups of the dump's own
//! mnemonics and numbers, and rendered lines cut short, overwritten or
//! extended. It must return `Some` or `None`, never panic. An [`Event`]
//! owns no heap memory at all, so no line can make it allocate.

use proptest::prelude::*;
use terp_trace::{Event, EventKind};

const MNEMONICS: [&str; 16] = [
    "at", "dt", "gr", "rv", "ex", "rd", "wr", "la", "lr", "pb", "up", "wk", "nr", "nx", "rs", "ra",
];

fn kind(rng: &mut TestRng) -> EventKind {
    let pmo = rng.next_u64() as u16;
    let (a, b) = (rng.next_u64(), rng.next_u64());
    let small = rng.next_u64() as u32;
    let writable = rng.below(2) == 0;
    match rng.below(16) {
        0 => EventKind::Attach {
            pmo,
            client: a,
            writable,
        },
        1 => EventKind::Detach { pmo, client: a },
        2 => EventKind::Grant {
            pmo,
            client: a,
            writable,
        },
        3 => EventKind::Revoke { pmo, client: a },
        4 => EventKind::Expire { pmo },
        5 => EventKind::Read {
            pmo,
            client: a,
            offset: b,
            len: small,
            epoch: a ^ b,
        },
        6 => EventKind::Write {
            pmo,
            client: a,
            offset: b,
            len: small,
            epoch: a ^ b,
        },
        7 => EventKind::LockAcquire { obj: small, seq: a },
        8 => EventKind::LockRelease { obj: small, seq: a },
        9 => EventKind::Publish { pmo, epoch: a },
        10 => EventKind::Unpark { token: a },
        11 => EventKind::Wakeup { token: a },
        12 => EventKind::NetRecv {
            conn: small,
            req: a,
        },
        13 => EventKind::NetExec {
            conn: small,
            req: a,
        },
        14 => EventKind::ReplShip {
            shard: small,
            seq: a,
        },
        _ => EventKind::ReplApply {
            shard: small,
            seq: a,
        },
    }
}

/// A token the parser might meet: a mnemonic, a number (sometimes out of
/// its field's range or negative), or junk.
fn token(rng: &mut TestRng) -> String {
    match rng.below(5) {
        0 => MNEMONICS[rng.below(16) as usize].to_string(),
        1 => rng.below(1000).to_string(),
        2 => rng.next_u64().to_string(),
        3 => format!("-{}", rng.below(10)),
        _ => "18446744073709551616x".to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary text, including invalid UTF-8 made lossy.
    #[test]
    fn arbitrary_text_parses_or_refuses(bytes in collection::vec(any::<u8>(), 0..120)) {
        let _ = Event::parse_line(&String::from_utf8_lossy(&bytes));
    }

    /// Lines of the dump's own vocabulary in arbitrary order and number.
    #[test]
    fn token_soup_parses_or_refuses(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let line: Vec<String> = (0..rng.below(9)).map(|_| token(rng)).collect();
        let _ = Event::parse_line(&line.join(" "));
    }

    /// A rendered line round-trips; cut short, with a token overwritten or
    /// with one appended, it parses or refuses.
    #[test]
    fn mutated_rendered_lines_parse_or_refuse(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let event = Event { ts_ns: rng.next_u64(), kind: kind(rng) };
        let line = event.render_line();
        prop_assert_eq!(Event::parse_line(&line), Some(event));

        let cut = rng.below(line.len() as u64) as usize;
        let _ = Event::parse_line(&line[..cut]);

        let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
        let i = rng.below(tokens.len() as u64) as usize;
        tokens[i] = token(rng);
        let _ = Event::parse_line(&tokens.join(" "));
        tokens.push(token(rng));
        let _ = Event::parse_line(&tokens.join(" "));
    }
}

#[test]
fn an_event_owns_no_heap_memory() {
    assert!(!std::mem::needs_drop::<Event>());
}
