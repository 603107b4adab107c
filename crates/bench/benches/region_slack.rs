//! Swaps-vs-slack on carved heavy-hex regions: the measurement behind
//! `tetris_engine::slack_for_width`.
//!
//! For each job width, the 130-node service device (`heavy_hex(7, 16)`) is
//! carved into one region of `width + slack` qubits per slack level, a
//! deterministic UCC workload of that width compiles against the induced
//! subgraph, and the SWAP count (plus CNOTs, the tiebreaker) is recorded.
//! The "pick" column is the smallest slack whose SWAP count is within 2%
//! of the width's best — the shape `tetris_engine::slack_for_width`
//! hard-codes (re-run this bench and update the table there if the
//! compiler's routing behavior shifts).
//!
//! `harness = false`; run with
//! `cargo bench -p tetris-bench --bench region_slack` (`-- --out FILE`
//! writes a JSON report).

use tetris_core::{TetrisCompiler, TetrisConfig};
use tetris_pauli::encoder::Encoding;
use tetris_pauli::uccsd::synthetic_ucc;
use tetris_topology::CouplingGraph;

const WIDTHS: [usize; 8] = [4, 6, 8, 10, 12, 16, 20, 24];
const SLACKS: [usize; 5] = [0, 1, 2, 3, 4];

struct Cell {
    width: usize,
    slack: usize,
    swaps: usize,
    cnots: usize,
}

fn main() {
    let out_path = {
        let argv: Vec<String> = std::env::args().collect();
        argv.iter()
            .position(|a| a == "--out")
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };

    let device = CouplingGraph::heavy_hex(7, 16);
    let mut cells: Vec<Cell> = Vec::new();
    for width in WIDTHS {
        let ham = synthetic_ucc(width, Encoding::JordanWigner, 0x51ac ^ width as u64);
        for slack in SLACKS {
            let regions = device
                .carve(&[width + slack])
                .expect("130-node device hosts every width in the sweep");
            let sub = device.induced(&regions[0]);
            let r = TetrisCompiler::new(TetrisConfig::default()).compile(&ham, &sub);
            cells.push(Cell {
                width,
                slack,
                swaps: r.stats.swaps_final,
                cnots: r.stats.emitted_cnots,
            });
        }
    }

    println!(
        "{:>6} {:>6} {:>8} {:>8} {:>6}",
        "width", "slack", "swaps", "cnots", "pick"
    );
    let mut picks: Vec<(usize, usize)> = Vec::new();
    for width in WIDTHS {
        let of_width: Vec<&Cell> = cells.iter().filter(|c| c.width == width).collect();
        let best = of_width.iter().map(|c| c.swaps).min().unwrap();
        // Smallest slack within 2% of the width's best SWAP count: slack
        // is free qubits taken from batch-mates, so "almost as good,
        // narrower" wins.
        let pick = of_width
            .iter()
            .find(|c| c.swaps as f64 <= best as f64 * 1.02 + 1e-9)
            .map(|c| c.slack)
            .unwrap();
        picks.push((width, pick));
        for c in &of_width {
            println!(
                "{:>6} {:>6} {:>8} {:>8} {:>6}",
                c.width,
                c.slack,
                c.swaps,
                c.cnots,
                if c.slack == pick { "<--" } else { "" }
            );
        }
    }
    println!("\nmeasured per-width slack picks: {picks:?}");

    if let Some(path) = out_path {
        let mut json = String::from("{\n  \"cells\": [\n");
        for (i, c) in cells.iter().enumerate() {
            json.push_str(&format!(
                "    {{ \"width\": {}, \"slack\": {}, \"swaps\": {}, \"cnots\": {} }}{}\n",
                c.width,
                c.slack,
                c.swaps,
                c.cnots,
                if i + 1 < cells.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n  \"picks\": [\n");
        for (i, (w, s)) in picks.iter().enumerate() {
            json.push_str(&format!(
                "    {{ \"width\": {w}, \"slack\": {s} }}{}\n",
                if i + 1 < picks.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench report");
        println!("wrote {path}");
    }
}
