//! File-format round-trips on generated designs, including a full
//! legalize-from-files cycle.

use flow3d::prelude::*;

fn demo() -> flow3d_gen::GeneratedCase {
    GeneratorConfig::small_demo(123).generate().unwrap()
}

#[test]
fn case_file_roundtrip_is_lossless() {
    let case = demo();
    let mut text = String::new();
    flow3d::io::write_case(&case.design, &mut text).unwrap();
    let reparsed = flow3d::io::parse_case(&text).unwrap();
    assert_eq!(reparsed, case.design);

    // Idempotent: writing the reparsed design gives identical text.
    let mut text2 = String::new();
    flow3d::io::write_case(&reparsed, &mut text2).unwrap();
    assert_eq!(text, text2);
}

#[test]
fn iccad2023_case_with_macros_roundtrips() {
    let mut cfg = GeneratorConfig::iccad2023("case2").unwrap();
    cfg.scale = 0.1;
    let case = cfg.generate().unwrap();
    assert!(case.design.num_macros() > 0);
    let mut text = String::new();
    flow3d::io::write_case(&case.design, &mut text).unwrap();
    let reparsed = flow3d::io::parse_case(&text).unwrap();
    assert_eq!(reparsed, case.design);
}

#[test]
fn placement_files_roundtrip_through_legalization() {
    let case = demo();
    let global = GlobalPlacer::new(GpConfig::default()).place_from(&case.design, &case.natural);

    // GP file round-trip (positions quantized to 1e-4 by the writer).
    let mut gp_text = String::new();
    flow3d::io::write_placement3d(&case.design, &global, &mut gp_text).unwrap();
    let global2 = flow3d::io::parse_placement3d(&case.design, &gp_text).unwrap();
    for i in 0..case.design.num_cells() {
        let c = CellId::new(i);
        assert!((global.pos(c).x - global2.pos(c).x).abs() < 1e-3);
        assert!((global.die_affinity(c) - global2.die_affinity(c)).abs() < 1e-3);
    }

    // Legalize the parsed placement and round-trip the legal output.
    let outcome = Flow3dLegalizer::default()
        .legalize(&case.design, &global2)
        .unwrap();
    let mut legal_text = String::new();
    flow3d::io::write_legal(&case.design, &outcome.placement, &mut legal_text).unwrap();
    let legal2 = flow3d::io::parse_legal(&case.design, &legal_text).unwrap();
    assert_eq!(legal2, outcome.placement);
    assert!(check_legal(&case.design, &legal2).is_legal());
}

#[test]
fn parse_errors_are_line_addressed() {
    let case = demo();
    let mut text = String::new();
    flow3d::io::write_case(&case.design, &mut text).unwrap();
    // Corrupt one mid-file line.
    let corrupted = text.replace("NumNets", "NumNyets");
    let err = flow3d::io::parse_case(&corrupted).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line"), "{msg}");
}

use flow3d::db::CellId;

// --- Streaming reader: equivalence and fuzz-shaped robustness -----------
//
// `parse_case_reader` must accept exactly what `parse_case` accepts and
// produce an identical `Design`; on malformed input of any shape —
// truncation, hostile counts, duplicate names, non-UTF-8 bytes, reader
// failures — it must return a typed `IoError`, never panic.

#[test]
fn streaming_reader_matches_in_memory_parser() {
    let mut cfg = GeneratorConfig::iccad2023("case2").unwrap();
    cfg.scale = 0.1;
    let case = cfg.generate().unwrap();
    let mut text = String::new();
    flow3d::io::write_case(&case.design, &mut text).unwrap();
    let in_memory = flow3d::io::parse_case(&text).unwrap();
    // A 7-byte buffer forces the reader through many short fills, so
    // line reassembly is genuinely exercised.
    let streamed =
        flow3d::io::parse_case_reader(std::io::BufReader::with_capacity(7, text.as_bytes()))
            .unwrap();
    assert_eq!(streamed, in_memory);
    assert_eq!(streamed, case.design);
}

#[test]
fn truncated_case_never_panics() {
    let case = demo();
    let mut text = String::new();
    flow3d::io::write_case(&case.design, &mut text).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    for keep in 0..lines.len() {
        let prefix = lines[..keep].join("\n");
        // Every prefix must come back as a typed result: an error naming
        // a line, or — once the mandatory sections are complete — a
        // design no bigger than the original.
        match flow3d::io::parse_case_reader(prefix.as_bytes()) {
            Ok(d) => assert!(d.num_cells() <= case.design.num_cells()),
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains("line"), "untyped error at {keep} lines: {msg}");
            }
        }
    }
}

#[test]
fn oversized_counts_fail_without_huge_allocations() {
    let case = demo();
    let mut text = String::new();
    flow3d::io::write_case(&case.design, &mut text).unwrap();
    // Truncate right after each count header and replace the count with
    // a hostile value: the reader must fail with "end of file" without
    // first attempting an instance-scale preallocation.
    for keyword in ["NumInstances", "NumNets"] {
        let mut mutated = String::new();
        for line in text.lines() {
            if line.starts_with(keyword) {
                mutated.push_str(&format!("{keyword} 987654321\n"));
                break;
            }
            mutated.push_str(line);
            mutated.push('\n');
        }
        let err = flow3d::io::parse_case_reader(mutated.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("end of file"), "{keyword}: {err}");
    }
}

#[test]
fn duplicate_instance_is_a_typed_error() {
    let case = demo();
    let mut text = String::new();
    flow3d::io::write_case(&case.design, &mut text).unwrap();
    // Repeat the first instance line in place of the second: the name
    // collision must surface before any count bookkeeping.
    let first_inst = text
        .lines()
        .find(|l| l.starts_with("Inst "))
        .expect("case has instances")
        .to_string();
    let mut seen = 0;
    let mutated: String = text
        .lines()
        .map(|l| {
            if l.starts_with("Inst ") {
                seen += 1;
                if seen == 2 {
                    return format!("{first_inst}\n");
                }
            }
            format!("{l}\n")
        })
        .collect();
    let err = flow3d::io::parse_case_reader(mutated.as_bytes()).unwrap_err();
    assert!(err.to_string().contains("duplicate instance"), "{err}");
}

#[test]
fn non_utf8_bytes_are_a_typed_error() {
    // Invalid from the first byte.
    let err = flow3d::io::parse_case_reader(&[0xff, 0xfe, 0x00, 0x41][..]).unwrap_err();
    assert!(err.to_string().contains("not valid UTF-8"), "{err}");

    // A valid prefix followed by garbage mid-file reports the bad line.
    let case = demo();
    let mut text = String::new();
    flow3d::io::write_case(&case.design, &mut text).unwrap();
    let split = text.len() / 2;
    let mut bytes = text.as_bytes()[..split].to_vec();
    bytes.extend_from_slice(&[0xc3, 0x28, 0xa0, 0xa1, b'\n']);
    let err = flow3d::io::parse_case_reader(&bytes[..]).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("not valid UTF-8") || msg.contains("line"),
        "{msg}"
    );
}

#[test]
fn reader_failures_surface_as_read_errors() {
    struct Failing;
    impl std::io::Read for Failing {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
    }
    let err = flow3d::io::parse_case_reader(std::io::BufReader::new(Failing)).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("read error"), "{msg}");
    assert!(msg.contains("disk on fire"), "{msg}");
}

/// Regression: with heterogeneous row heights (92 vs 115), the die
/// outline is not a multiple of one die's row height. The reader must
/// take the outline from `DieSize` — deriving it from
/// `rows × row_height` clips the taller-outline die and the round-trip
/// silently shrinks the design.
#[test]
fn heterogeneous_row_heights_roundtrip_exactly() {
    let mut cfg = GeneratorConfig::million("m1h").unwrap();
    cfg.scale = 0.01;
    let case = cfg.generate().unwrap();
    let d = &case.design;
    let top = d.die(flow3d::db::DieId::TOP);
    assert_ne!(
        top.outline.height() % top.row_height,
        0,
        "case must exercise a non-aligned outline"
    );
    let mut text = String::new();
    flow3d::io::write_case(d, &mut text).unwrap();
    let reparsed = flow3d::io::parse_case(&text).unwrap();
    assert_eq!(reparsed, *d);
}

/// A few hundred bytes of die outline must not be able to demand rows
/// by the billion or overflow the outline's extent: `parse_case` rejects
/// both as an invalid die instead of aborting on the allocation (or, in
/// a debug build, panicking on the subtraction).
#[test]
fn hostile_die_outlines_are_typed_errors() {
    let case = |die_size: &str| {
        format!(
            "NumTechnologies 1\nTech T 1\nLibCell N INV 1 1 0\nDieSize {die_size}\n\
             TopDieMaxUtil 90\nBottomDieMaxUtil 90\nTopDieRows 0 0 100 1 1\n\
             BottomDieRows 0 0 100 1 1\nTopDieTech T\nBottomDieTech T\n\
             NumInstances 1\nInst u0 INV\nNumNets 0\n"
        )
    };
    let too_many_rows = format!("0 0 100 {}", 100_000_000_000u64);
    let overflowing = format!("0 {} 100 {}", -i64::MAX, i64::MAX);
    for die_size in [too_many_rows.as_str(), overflowing.as_str(), "0 0 -100 10"] {
        match flow3d::io::parse_case(&case(die_size)) {
            Err(flow3d::io::IoError::Db(flow3d::db::DbError::InvalidDie { .. })) => {}
            other => panic!("DieSize {die_size}: expected an invalid die, got {other:?}"),
        }
    }
    // The cap itself is a legal row count; a zero-row die stays valid.
    let at_cap = format!("0 0 1 {}", flow3d::db::MAX_ROWS_PER_DIE);
    let d = flow3d::io::parse_case(&case(&at_cap)).unwrap();
    assert_eq!(
        d.die(flow3d::db::DieId::TOP).num_rows(),
        flow3d::db::MAX_ROWS_PER_DIE
    );
    let d = flow3d::io::parse_case(&case("0 0 100 0")).unwrap();
    assert_eq!(d.die(flow3d::db::DieId::TOP).num_rows(), 0);
}
