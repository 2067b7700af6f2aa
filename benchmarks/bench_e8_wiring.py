"""E8 — wiring management: composition by abutment vs explicit routing.

The paper credits the Mead design style with unifying the structural and
physical hierarchies, so that most connections are made by abutment rather
than by a router.  This benchmark takes a bit-sliced datapath (connections
by abutment: zero routed length between slices) and compares it against the
same connectivity realised through a routing channel from a shuffled
placement, measuring total wire length and the extra channel area.
"""

import random

import pytest

from benchmarks.conftest import emit, record_bench
from repro.assembly import ChannelNet, ChannelRouter
from repro.generators import DatapathColumn, DatapathGenerator
from repro.layout.cell import Cell
from repro.metrics import format_table, wire_length_estimate


def abutted_datapath(technology, bits):
    generator = DatapathGenerator(
        technology,
        [DatapathColumn("register", "acc"), DatapathColumn("adder", "alu"),
         DatapathColumn("shifter", "sh"), DatapathColumn("bus", "bus")],
        bits=bits)
    cell = generator.cell()
    return generator.report, wire_length_estimate(cell)


def channel_routed_links(technology, bits, shuffle, seed=1979):
    """The inter-slice connectivity realised through a routing channel.

    ``shuffle=False`` models the Mead-style ordered placement (each slice next
    to its neighbour, as abutment gives for free); ``shuffle=True`` models a
    placement that ignores the structural order, so the same connections must
    reach across the channel.
    """
    rng = random.Random(seed)
    slice_width = 60
    positions = list(range(bits))
    if shuffle:
        rng.shuffle(positions)
    # A slice drives its neighbour from a pin on its right third and listens
    # on its left third, so no two links ever share a pin column: the channel
    # router's vertical-constraint graph stays empty and the track count is
    # the placement's own interval density, which is what E8 compares.
    nets = []
    for bit in range(bits - 1):
        out_pin = positions[bit] * slice_width + 2 * slice_width // 3
        in_pin = positions[bit + 1] * slice_width + slice_width // 3
        nets.append(ChannelNet(f"link{bit}", [out_pin], [in_pin]))
    router = ChannelRouter()
    cell = Cell(f"e8_channel_{bits}_{'shuffled' if shuffle else 'ordered'}")
    result = router.route(cell, nets, bottom_y=0)
    channel_area = result.channel_height * bits * slice_width
    return result, channel_area


def run_comparison(technology):
    rows = []
    for bits in (4, 8, 16, 32):
        report, _datapath_wires = abutted_datapath(technology, bits)
        ordered, ordered_area = channel_routed_links(technology, bits, shuffle=False)
        shuffled, shuffled_area = channel_routed_links(technology, bits, shuffle=True)
        rows.append([
            bits,
            ordered.total_wire_length, ordered.tracks_used,
            shuffled.total_wire_length, shuffled.tracks_used,
            shuffled_area,
            f"{shuffled.total_wire_length / max(1, ordered.total_wire_length):.1f}x",
            report.width * report.height,
        ])
    return rows


def test_e8_abutment_vs_channel_routing(benchmark, technology):
    rows = benchmark(run_comparison, technology)
    emit(format_table(
        ["bits", "ordered wire length", "ordered tracks",
         "shuffled wire length", "shuffled tracks", "shuffled channel area",
         "wire length ratio", "abutted datapath area"],
        rows, "E8: structural/physical order (abutment) vs shuffled placement + channel routing"))

    for (bits, ordered_len, ordered_tracks, shuffled_len, shuffled_tracks,
         channel_area, _ratio, _area) in rows:
        # Keeping the structural order (what abutment gives for free) needs
        # one track (neighbour links never overlap) and nearest-neighbour
        # wires; ignoring it costs more wire and more tracks.
        assert ordered_tracks == 1
        assert shuffled_len >= ordered_len
        if bits >= 8:
            assert shuffled_len > ordered_len
            assert shuffled_tracks > ordered_tracks
        assert channel_area > 0
    # The penalty grows with the slice count.
    first_ratio = rows[0][3] / max(1, rows[0][1])
    last_ratio = rows[-1][3] / max(1, rows[-1][1])
    assert last_ratio > first_ratio

    record_bench(
        "e8", benchmark,
        widths=len(rows),
        largest_ordered_wire_length=rows[-1][1],
        largest_shuffled_wire_length=rows[-1][3],
    )
