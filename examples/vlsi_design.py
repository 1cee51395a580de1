#!/usr/bin/env python3
"""VLSI circuit design: netlists, cell explosion, semantic parallelism.

One of the three application areas that motivated PRIMA (paper, section
1).  Shows netlist molecules, the recursive cell explosion, and a single
user operation decomposed into units of work scheduled on a simulated
multi-processor PRIMA (section 4).

Run:  python examples/vlsi_design.py
"""

from repro.parallel import parallel_select
from repro.workloads import vlsi


def main() -> None:
    handles = vlsi.generate(n_cells=32, pins_per_cell=4, n_nets=24)
    db = handles.db
    print("generated:", handles.counts())

    # Netlist molecules: net -> pins -> owning cells (vertical access).
    result = db.query("SELECT ALL FROM netlist WHERE net_no = 1")
    net = result[0]
    pins = net.component_list("pin")
    print(f"\nnet 1 connects {len(pins)} pins on cells "
          f"{sorted({p.component_list('cell')[0].atom['cell_no'] for p in pins})}")

    # Horizontal access with a quantifier: nets with fan-out >= 4.
    result = db.query(
        "SELECT ALL FROM netlist WHERE EXISTS_AT_LEAST (4) pin: "
        "pin.name != ''"
    )
    print(f"high fan-out nets: {[m.atom['net_no'] for m in result]}")

    # Recursive cell explosion (the VLSI piece_list).
    top = vlsi.top_cell_no(handles)
    result = db.query(
        f"SELECT ALL FROM cell_explosion "
        f"WHERE cell_explosion (0).cell_no = {top}"
    )
    print(f"\ncell explosion of top cell {top}: depth {result[0].depth()}, "
          f"{result[0].atom_count()} cells")

    # Semantic parallelism: one DU per netlist molecule, simulated schedule.
    for processors in (1, 2, 4, 8):
        outcome = parallel_select(db, "SELECT ALL FROM netlist",
                                  processors=processors)
        report = outcome.report
        print(f"P={processors}: speedup {report.speedup:.2f}x "
              f"(makespan {report.makespan:.0f} of "
              f"{report.serial_time:.0f} cost units, "
              f"{report.conflict_edges} conflicts)")

    assert db.verify_integrity() == []
    print("\nintegrity: OK")


if __name__ == "__main__":
    main()
