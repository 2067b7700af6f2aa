"""Hierarchical extraction: a cell's netlist structure composed from its instances'.

:func:`compose_extract` builds the :class:`_ExtractArtifact` of one oriented
view (:mod:`repro.layout.view`) from the artifacts of the view's instances,
in the flat extractor's five stages — channels, diffusion split, same-layer
connectivity, contacts / buried straps / labels, per-channel device data —
and a sixth, the electrical node partition with its wire sums.  Each stage
replays an isolated instance (:func:`repro.layout.view.isolated_sources`)
as one block: its rect lists by reference, its id lists re-based in bulk,
its nodes spliced in, renumbered.  For the other instances it
replays a child's cached per-element result (ids re-based by block offsets)
unless foreign geometry could change it; those *suspect* elements are
recomputed in the parent's context with the flat extractor's own stage
functions (:mod:`repro.extract.extractor`), so over-marking costs time,
never correctness.  :func:`circuit_of` then runs the shared circuit finisher
over the composed artifact; the netlist is byte-identical to
:meth:`Extractor.extract` (``tests/test_hier_golden.py``).  A view with one
source (a leaf or a collapsed cell) has nothing to replay: its artifact is
the flat extractor's stage loops themselves
(:func:`repro.extract.extractor.run_stages`).

The composer sees a view and child artifacts only: caching, store keys,
spans and the collector pause belong to :mod:`repro.analysis.hier`.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.extract.extractor import (
    ExtractedCircuit,
    NodePartition,
    adjacent_piece_ids,
    covers,
    diffusion_crossings,
    diffusion_layers,
    finish_circuit,
    gate_item,
    label_item_hits,
    label_probe,
    partition_nodes,
    run_stages,
    split_by_channels,
)
from repro.geometry.index import SpatialIndex, UnionFind, build_index
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.view import (
    _BoxIndex,
    _Blocks,
    _Part,
    _StoredSlots,
    _View,
    _translated,
    compose_components,
    count_sources,
)
from repro.obs import metrics as obs_metrics
from repro.technology.technology import Technology
from repro.timing.parasitics import ParasiticModel


class _ExtractArtifact(_StoredSlots):
    """Cached extraction structure of one (cell, orientation).

    Holds everything the flat pipeline derives from geometry *before* node
    naming: channels, diffusion pieces, same-layer connectivity, contact and
    label resolutions, per-channel device data, and the node partition those
    make of the conducting items, with each node's wire sums (``nodes``).
    The partition composes; names do not.  Node naming and port declaration
    are global (anonymous names follow the whole-chip node order, and label
    text merges nodes across instances), so they run once per analysed cell,
    in :func:`circuit_of` — linear, query-free work whose result is cached
    as the ``circuit`` kind.  The edge lists stay beside the partition
    because a parent that re-splits an interface instance's diffusion needs
    them.
    """

    __slots__ = ("diffusion", "crossings",
                 "chan_of_poly", "channels", "chan_x_diff", "pieces",
                 "piece_slices", "piece_edges", "poly_comps", "metal_comps",
                 "contact_touch", "buried_touch", "label_hits", "gates",
                 "terminals", "depletion", "nodes", "_piece_index")
    _TRANSIENT = ("_piece_index",)
    _RECT_LISTS = ("diffusion", "channels", "pieces")

    def __init__(self) -> None:
        # One block per (diffusion layer, source), layer-major.
        self.diffusion = _Blocks([])
        # Per poly rect: [(global diffusion id, covered)] ascending; the
        # overlap is poly rect ∩ diffusion rect.
        self.crossings: List[List[Tuple[int, bool]]] = []
        # Per poly rect: channel id per crossing (-1 where buried-covered).
        self.chan_of_poly: List[List[int]] = []
        self.channels = _Blocks([])              # one block per source
        self.chan_x_diff: List[List[int]] = []  # per diffusion id, ascending
        self.pieces = _Blocks([])    # one block per (layer, source)
        self.piece_slices: List[Tuple[int, int]] = []
        self.piece_edges: List[Tuple[int, int]] = []
        self.poly_comps: List[List[int]] = []
        self.metal_comps: List[List[int]] = []
        self.contact_touch: List[List[int]] = []
        self.buried_touch: List[List[int]] = []
        self.label_hits: List[List[int]] = []
        self.gates: List[Optional[int]] = []
        self.terminals: List[List[int]] = []
        self.depletion: List[bool] = []
        self.nodes = NodePartition(array("i"), array("d"), array("d"))
        self._piece_index: Optional[SpatialIndex] = None

    def piece_index(self) -> SpatialIndex:
        if self._piece_index is None:
            self._piece_index = build_index(self.pieces.flat())
        return self._piece_index


def compose_extract(technology: Technology, view: _View,
                    children: Sequence[Optional[_ExtractArtifact]]
                    ) -> _ExtractArtifact:
    """The extraction artifact of ``view``; ``children[k]`` is instance ``k``'s.

    A one-source view — a leaf or a collapsed cell — has no instance to
    replay and no interface: its artifact is the flat extractor's own stage
    loops (:func:`repro.extract.extractor.run_stages`) run on the view's
    rect lists, whose positions are the artifact's ids, counted in
    ``hier.compose.one_source``.  A composed view adds the nodes it spliced
    from replayed instances and the items its union-find saw to
    ``hier.compose.nodes_spliced`` / ``hier.compose.items_unioned``.
    """
    if len(view.sources) == 1:
        return _one_source(technology, view)
    build = _Build(technology, view, children)
    _channels(build)
    _split(build)
    _connectivity(build)
    _contacts_and_labels(build)
    _devices(build)
    unioned = _nodes(build, ParasiticModel(technology))
    count_sources(view)
    obs_metrics.counter("hier.compose.nodes_spliced").inc(
        build.art.nodes.spliced)
    obs_metrics.counter("hier.compose.items_unioned").inc(unioned)
    return build.art


def _one_source(technology: Technology, view: _View) -> _ExtractArtifact:
    obs_metrics.counter("hier.compose.one_source").inc()
    stages = run_stages(
        technology, {layer: rects.part(0) for layer, rects in view.rects.items()},
        view.labels, view.index,
        lambda layer: view.index(layer).connected_components(), build_index)
    art = _ExtractArtifact()
    layers = diffusion_layers(technology)
    art.diffusion = _Blocks([part for layer in layers
                             for part in view.layer(layer).parts])
    art.crossings, art.chan_of_poly = stages.crossings, stages.chan_of_poly
    art.channels = _Blocks.of(stages.channels)
    art.chan_x_diff = stages.chan_x_diff
    # One block of pieces per diffusion layer: each starts at the first
    # piece of the layer's first rect.
    pieces, piece_slices = stages.pieces, stages.piece_slices
    bounds = [piece_slices[first][0] if first < len(piece_slices)
              else len(pieces) for first in art.diffusion.starts[:-1]]
    bounds.append(len(pieces))
    art.pieces = _Blocks([_Part.of(pieces[start:end])
                          for start, end in zip(bounds, bounds[1:])])
    art.piece_slices, art.piece_edges = piece_slices, stages.piece_edges
    art.poly_comps, art.metal_comps = stages.poly_comps, stages.metal_comps
    art.contact_touch, art.buried_touch = (stages.contact_touch,
                                           stages.buried_touch)
    art.label_hits = stages.label_hits
    art.gates, art.terminals = stages.gates, stages.terminals
    art.depletion, art.nodes = stages.depletion, stages.nodes
    return art


def circuit_of(technology: Technology, cell: Cell, view: _View,
               art: _ExtractArtifact) -> ExtractedCircuit:
    """The ``circuit`` of an analysed cell: the flat finisher on ``art``.

    ``art.nodes`` partitions the items (diffusion pieces, then poly, then
    metal) as the flat union-find does, with the same wire sums, so node
    names, device order and the parasitic annotation are identical
    whenever the composed structure is.  Nothing is unioned here.  Channels
    are handed over as the lists they are made of, each in its own frame:
    the finisher reads their sizes only, so no block is placed to hand
    them over.
    """
    return finish_circuit(technology, cell, view.labels, art.label_hits,
                          art.nodes, len(art.pieces),
                          chain.from_iterable(art.channels.frame_free_lists()),
                          zip(art.gates, art.terminals, art.depletion))


# -- the per-build context ----------------------------------------------------


class _Build:
    """State of one :func:`compose_extract` run.

    Owns the id maps from each child's element ids to this cell's
    (``diff_map``, ``chan_map``, ``piece_map``: ``-1`` where the child's
    element did not survive as such), the per-source box indexes that
    localize the interface probes, and the candidate queries the stages
    share.  The stages fill ``art`` in order; each reads what the earlier
    ones left here.  An isolated source (``isolated[k]``) is replayed by
    every stage in bulk and never probed.
    """

    def __init__(self, technology: Technology, view: _View,
                 children: Sequence[Optional[_ExtractArtifact]]):
        self.view = view
        self.sources = sources = view.sources
        self.isolated = view.isolated
        self.children = children
        self.art = art = _ExtractArtifact()
        self.DL = DL = diffusion_layers(technology)
        self.own_view = sources[0].view
        self.src_bbox: List[Optional[Rect]] = [s.bbox() for s in sources]
        self.poly = view.layer("poly")
        self.poly_offsets = self.poly.starts
        self.metal_offsets = view.layer("metal").starts

        # Global diffusion list: layer-major, source blocks within a layer —
        # exactly the flat extractor's `[r for layer in DL for r in rects]`.
        # Its blocks are the view's own (so a block placed for one is placed
        # for both).
        self.diff_map: List[Optional[List[int]]] = [None] + [
            [0] * len(children[k].diffusion) for k in range(1, len(sources))
        ]
        self.own_diff_ids: List[int] = []
        # Start of each layer's block in a child's own (layer-major) ids.
        self.child_layer_starts: List[Optional[List[int]]] = [None]
        for source in sources[1:]:
            starts = [0]
            for layer in DL:
                starts.append(starts[-1] + len(source.view.layer(layer)))
            self.child_layer_starts.append(starts)
        parts: List[_Part] = []
        base = 0
        for layer_pos, layer in enumerate(DL):
            rects = view.layer(layer)
            offs = rects.starts
            parts.extend(rects.parts)
            self.own_diff_ids.extend(range(base, base + offs[1]))
            for k in range(1, len(sources)):
                # Child diffusion ids are layer-major too; re-base this
                # layer's block.
                child_start = self.child_layer_starts[k][layer_pos]
                self.diff_map[k][child_start:child_start + offs[k + 1] - offs[k]] = \
                    range(base + offs[k], base + offs[k + 1])
            base += len(rects)
        art.diffusion = _Blocks(parts)

        diff_boxes: List[Optional[Rect]] = []
        for source in sources:
            diff_box: Optional[Rect] = None
            for layer in DL:
                box = source.layer_bbox(layer)
                if box is not None:
                    diff_box = box if diff_box is None else diff_box.union(box)
            diff_boxes.append(diff_box)
        self.diff_boxes = diff_boxes
        self.poly_boxes = poly_boxes = [s.layer_bbox("poly") for s in sources]
        implant_boxes = [s.layer_bbox("implant") for s in sources]
        self.diff_box_index = _BoxIndex.of_boxes(diff_boxes)
        self.child_diff_box_index = _BoxIndex.of_boxes(diff_boxes,
                                                       skip_first=True)
        self.poly_box_index = _BoxIndex.of_boxes(poly_boxes)
        self.metal_box_index = _BoxIndex.of_boxes(
            [s.layer_bbox("metal") for s in sources])
        self.buried_box_index = _BoxIndex.of_boxes(
            [s.layer_bbox("buried") for s in sources])
        self.implant_box_index = _BoxIndex.of_boxes(implant_boxes)
        # Channels of an instance lie inside poly ∩ diffusion of that
        # instance; devices reference poly, diffusion pieces and implant.
        chan_boxes: List[Optional[Rect]] = [None]
        device_boxes: List[Optional[Rect]] = [None]
        for k in range(1, len(sources)):
            pb, db = poly_boxes[k], diff_boxes[k]
            chan_boxes.append(None if pb is None or db is None
                              else pb.intersection(db))
            box = pb
            for other in (db, implant_boxes[k]):
                if other is not None:
                    box = other if box is None else box.union(other)
            device_boxes.append(box)
        self.chan_box_index = _BoxIndex.of_boxes(chan_boxes, skip_first=True)
        self.device_box_index = _BoxIndex.of_boxes(device_boxes,
                                                   skip_first=True)
        # The instances that are not replayed, by touching bbox.
        self.interface_index = _BoxIndex.of_boxes([
            box if k and not self.isolated[k] else None
            for k, box in enumerate(self.src_bbox)])

        # Left by the stages for the later ones.
        self.fresh_channels: Set[int] = set()
        self.chan_map: List[Optional[Sequence[int]]] = [None] + [
            [-1] * len(children[k].channels) for k in range(1, len(sources))
        ]
        self.piece_map: List[Optional[List[int]]] = [None] + [
            [-1] * len(children[k].pieces) for k in range(1, len(sources))
        ]
        self.new_pieces: List[int] = []
        self.new_piece_index: Optional[SpatialIndex] = None
        # Set by index_items() once the pieces are final.
        self.wire_layers: List[Tuple[str, _BoxIndex, int]] = []
        self.item_maps: List[Optional[Tuple[List[int], int, int, int, int]]] = []
        # What joins the items of the own source and the interface instances
        # (a replayed instance's items join only each other): piece edges,
        # per-layer components (ids into the layer), contact / buried
        # touches.  The node partition unions these and nothing else.
        self.joined_edges: Set[Tuple[int, int]] = set()
        self.joined_comps: Dict[str, List[List[int]]] = {}
        self.joined_touches: List[List[int]] = []

    # -- candidate queries ----------------------------------------------------

    def diffusion_candidates(self, region: Rect, strict: bool) -> List[int]:
        """Global diffusion ids touching (``strict``: overlapping) region."""
        sources, diff_starts = self.sources, self.art.diffusion.starts
        found: List[int] = []
        for k in self.diff_box_index.near(region, strict=strict):
            source = sources[k]
            for layer_pos, layer in enumerate(self.DL):
                block_start = diff_starts[layer_pos * len(sources) + k]
                for cid in source.probe(layer, region, strict=strict):
                    found.append(block_start + cid)
        found.sort()
        return found

    def layer_candidates(self, layer: str, box_index: _BoxIndex, region: Rect,
                         strict: bool = False, base: int = 0) -> List[int]:
        """``base`` plus the ids into ``view.layer(layer)`` touching
        (``strict``: overlapping) region, ascending."""
        sources, offsets = self.sources, self.view.layer(layer).starts
        found = [base + offsets[k] + cid
                 for k in box_index.near(region, strict=strict)
                 for cid in sources[k].probe(layer, region, strict=strict)]
        found.sort()
        return found

    def piece_candidates(self, region: Rect, strict: bool = False) -> List[int]:
        """Global diffusion-piece ids touching region (stage 2 onwards)."""
        sources, children, piece_map = self.sources, self.children, self.piece_map
        found: List[int] = []
        for k in self.child_diff_box_index.near(region, strict=strict):
            child = children[k]
            if not child.pieces:
                continue
            source = sources[k]
            pmap = piece_map[k]
            local = region.translated(-source.dx, -source.dy)
            for cid in child.piece_index().query(local, strict=strict):
                gid = pmap[cid]
                if gid >= 0:
                    found.append(gid)
        new_pieces = self.new_pieces
        for position in self.new_piece_index.query(region, strict=strict):
            found.append(new_pieces[position])
        found.sort()
        return found

    def conducting_candidates(self, region: Rect, strict: bool = False,
                              include_metal: bool = True) -> List[int]:
        """Global conducting item ids (pieces, poly, metal) touching region."""
        found = self.piece_candidates(region, strict=strict)
        for layer, box_index, start in (
                self.wire_layers if include_metal else self.wire_layers[:1]):
            found += self.layer_candidates(layer, box_index, region,
                                           strict=strict, base=start)
        return found

    def map_item(self, k: int, item: int) -> int:
        """Instance ``k``'s conducting item id in this cell's id space."""
        pmap, pieces_end, poly_end, poly_base, metal_base = self.item_maps[k]
        if item < pieces_end:
            return pmap[item]
        if item < poly_end:
            return poly_base + item
        return metal_base + item

    def rebased_items(self, k: int, rows: Sequence[Sequence[int]]
                      ) -> List[List[int]]:
        """Instance ``k``'s per-element item id lists, all re-based at once
        (a replayed instance's items all survive)."""
        pmap, pieces_end, poly_end, poly_base, metal_base = self.item_maps[k]
        return [[pmap[item] if item < pieces_end
                 else poly_base + item if item < poly_end
                 else metal_base + item for item in row] for row in rows]

    def index_items(self) -> None:
        """Freeze the item id spaces once the pieces are final (stage 2)."""
        poly_start = len(self.art.pieces)
        metal_start = poly_start + len(self.poly)
        self.wire_layers = [("poly", self.poly_box_index, poly_start),
                            ("metal", self.metal_box_index, metal_start)]
        self.item_maps = [None]
        for k in range(1, len(self.sources)):
            pieces_end = len(self.children[k].pieces)
            poly_end = pieces_end + len(self.sources[k].view.layer("poly"))
            self.item_maps.append((
                self.piece_map[k], pieces_end, poly_end,
                poly_start + self.poly_offsets[k] - pieces_end,
                metal_start + self.metal_offsets[k] - poly_end))


# -- stage 1: channels (poly x diffusion minus buried) ------------------------


def _channels(build: _Build) -> None:
    art, sources, children = build.art, build.sources, build.children
    poly, poly_offsets = build.poly, build.poly_offsets
    diff_boxes, buried_box_index = build.diff_boxes, build.buried_box_index
    diffusion = art.diffusion
    fresh_channels = build.fresh_channels
    buried = build.view.layer("buried")

    def buried_over(overlap: Rect) -> bool:
        return covers(overlap, buried, build.layer_candidates(
            "buried", buried_box_index, overlap))

    suspect_poly: Set[int] = set(range(poly_offsets[0], poly_offsets[1]))
    for k in build.interface_index.ids:
        box_k = build.poly_boxes[k]
        if box_k is None:
            continue
        offset = poly_offsets[k]
        for j in build.diff_box_index.near(box_k, strict=True):
            if j != k:
                for cid in sources[k].probe("poly", diff_boxes[j], strict=True):
                    suspect_poly.add(offset + cid)

    parts: List[_Part] = []
    channel_count = 0
    seen_channels: Dict[Rect, int] = {}
    for src, source in enumerate(sources):
        child = children[src]
        cmap = build.diff_map[src]
        poly_base = poly_offsets[src]
        if src and build.isolated[src]:
            # Replayed: the child's channels, crossings re-based in bulk.
            art.crossings.extend([[(cmap[d], covered) for d, covered in row]
                                  for row in child.crossings])
            art.chan_of_poly.extend([[c + channel_count if c >= 0 else -1
                                      for c in row]
                                     for row in child.chan_of_poly])
            build.chan_map[src] = range(channel_count,
                                        channel_count + len(child.channels))
            parts.append(child.channels.moved(source.dx, source.dy))
            channel_count += len(child.channels)
            continue
        chan_map = build.chan_map[src]
        polys = poly.part(src)
        own_channels: List[Rect] = []
        for p_gid in range(poly_base, poly_offsets[src + 1]):
            poly_rect = polys[p_gid - poly_base]
            crossings: List[Tuple[int, Rect, bool]] = []
            channel_ids: List[int] = []
            reused = src > 0 and p_gid not in suspect_poly
            if reused:
                for d_local, covered in child.crossings[p_gid - poly_base]:
                    d_gid = cmap[d_local]
                    overlap = poly_rect.intersection(diffusion[d_gid])
                    # The buried-cover verdict can flip if foreign buried
                    # material reaches the crossing.
                    if any(j != src for j in buried_box_index.near(overlap)):
                        covered = buried_over(overlap)
                    crossings.append((d_gid, overlap, covered))
            else:
                for d_gid, overlap in diffusion_crossings(
                        poly_rect, diffusion,
                        build.diffusion_candidates(poly_rect, strict=True)):
                    crossings.append((d_gid, overlap, buried_over(overlap)))
            for cross_pos, (d_gid, overlap, covered) in enumerate(crossings):
                if covered:
                    channel_ids.append(-1)
                    continue
                cid = seen_channels.get(overlap)
                if cid is None:
                    cid = channel_count + len(own_channels)
                    own_channels.append(overlap)
                    seen_channels[overlap] = cid
                channel_ids.append(cid)
                if reused:
                    child_cid = child.chan_of_poly[p_gid - poly_base][cross_pos]
                    if child_cid >= 0:
                        chan_map[child_cid] = cid
                else:
                    fresh_channels.add(cid)
            art.crossings.append([(d_gid, covered)
                                  for d_gid, _overlap, covered in crossings])
            art.chan_of_poly.append(channel_ids)
        parts.append(_Part.of(own_channels))
        channel_count += len(own_channels)
    art.channels = _Blocks(parts)


# -- stage 2: split diffusion by crossing channels ----------------------------


def _split(build: _Build) -> None:
    art, sources, children = build.art, build.sources, build.children
    channels, diff_starts = art.channels, art.diffusion.starts
    chan_box_index, isolated = build.chan_box_index, build.isolated
    blocks = len(sources)

    suspect_diff: Set[int] = set(build.own_diff_ids)
    for layer_pos in range(len(build.DL)):
        for src in build.interface_index.ids:
            block = layer_pos * blocks + src
            start = diff_starts[block]
            for row, d_rect in enumerate(art.diffusion.part(block)):
                if any(j != src for j in chan_box_index.near(d_rect,
                                                             strict=True)):
                    suspect_diff.add(start + row)
    for cid in build.fresh_channels:
        suspect_diff.update(build.diffusion_candidates(channels[cid],
                                                       strict=True))

    # Only diffusion of the own cell and the interface instances is ever
    # split here, and only their channels can cross it: index those, once
    # something needs it.
    channel_index = None

    def crossing_channels(d_rect: Rect) -> List[int]:
        nonlocal channel_index
        if channel_index is None:
            channel_index = _BoxIndex.of_blocks(
                channels, [k for k in range(blocks) if not isolated[k]])
        return channel_index.near(d_rect, strict=True)

    parts: List[_Part] = []
    piece_count = 0
    for layer_pos in range(len(build.DL)):
        for src, source in enumerate(sources):
            block = layer_pos * blocks + src
            child = children[src]
            cmap = build.chan_map[src]
            pmap = build.piece_map[src]
            block_start = diff_starts[block]
            rows = diff_starts[block + 1] - block_start
            # This block's first id among the child's own diffusion ids.
            child_start = build.child_layer_starts[src][layer_pos] if src else 0
            if src and isolated[src]:
                # Replayed: the child's pieces of this layer, by reference
                # (a slice only where the technology has several diffusion
                # layers), their id lists re-based.
                slices = child.piece_slices[child_start:child_start + rows]
                p_lo = slices[0][0] if rows else 0
                p_hi = slices[-1][0] + slices[-1][1] if rows else 0
                shift = piece_count - p_lo
                art.piece_slices.extend([(start + shift, length)
                                         for start, length in slices])
                art.chan_x_diff.extend([
                    [cmap[c] for c in crossing]
                    for crossing in child.chan_x_diff[child_start:child_start + rows]])
                pmap[p_lo:p_hi] = range(p_lo + shift, p_hi + shift)
                if p_lo == 0 and p_hi == len(child.pieces):
                    parts.append(child.pieces.moved(source.dx, source.dy))
                else:
                    parts.append(_Part([(child.pieces[p_lo:p_hi],
                                         source.dx, source.dy)]))
                piece_count += p_hi - p_lo
                continue
            local_shift = child_start - block_start
            pieces: List[Rect] = []
            for row, d_rect in enumerate(art.diffusion.part(block)):
                d_gid = block_start + row
                if src >= 1 and d_gid not in suspect_diff:
                    d_local = d_gid + local_shift
                    child_cross = child.chan_x_diff[d_local]
                    if all(cmap[c] >= 0 for c in child_cross):
                        start = piece_count + len(pieces)
                        p_start, p_len = child.piece_slices[d_local]
                        if (p_len == 1 and child.pieces[p_start]
                                == child.diffusion[d_local]):
                            # Unsplit rectangle: the piece is the diffusion
                            # rect, already placed in this frame.
                            pieces.append(d_rect)
                        else:
                            pieces.extend(_translated(
                                child.pieces[p_start:p_start + p_len],
                                source.dx, source.dy))
                        pmap[p_start:p_start + p_len] = range(start, start + p_len)
                        art.piece_slices.append((start, p_len))
                        art.chan_x_diff.append(sorted(cmap[c] for c in child_cross))
                        continue
                crossing_ids = crossing_channels(d_rect)
                start = piece_count + len(pieces)
                pieces.extend(split_by_channels(
                    d_rect, [channels[i] for i in crossing_ids]))
                build.new_pieces.extend(range(start, piece_count + len(pieces)))
                art.piece_slices.append((start, piece_count + len(pieces) - start))
                art.chan_x_diff.append(list(crossing_ids))
            parts.append(_Part.of(pieces))
            piece_count += len(pieces)
    art.pieces = _Blocks(parts)

    build.new_piece_index = build_index([art.pieces[g] for g in build.new_pieces])
    build.index_items()


# -- stage 3: same-layer connectivity -----------------------------------------


def _connectivity(build: _Build) -> None:
    art, sources, children = build.art, build.sources, build.children
    pieces, piece_map, src_bbox = art.pieces, build.piece_map, build.src_bbox

    edge_set = build.joined_edges
    replayed: List[Tuple[int, int]] = []
    for k in range(1, len(sources)):
        pmap = piece_map[k]
        if build.isolated[k]:
            # Every piece survives and the map is a shift: order holds.
            replayed.extend([(pmap[i], pmap[j])
                             for i, j in children[k].piece_edges])
            continue
        for i, j in children[k].piece_edges:
            gi, gj = pmap[i], pmap[j]
            if gi >= 0 and gj >= 0:
                edge_set.add((gi, gj) if gi < gj else (gj, gi))
    for gid in build.new_pieces:
        for other in build.piece_candidates(pieces[gid]):
            if other != gid:
                edge_set.add((gid, other) if gid < other else (other, gid))
    # Abutments between reused pieces of two interface instances.
    abutting = _BoxIndex.of_boxes([box if k and not build.isolated[k]
                          and children[k].pieces else None
                          for k, box in enumerate(src_bbox)])
    for k in abutting.ids:
        child_k, pmap_k, source_k = children[k], piece_map[k], sources[k]
        for j in abutting.near(src_bbox[k]):
            if j <= k:
                continue
            child_j, pmap_j, source_j = children[j], piece_map[j], sources[j]
            local_k = src_bbox[j].translated(-source_k.dx, -source_k.dy)
            for ck in child_k.piece_index().query(local_k):
                gk = pmap_k[ck]
                if gk < 0:
                    continue
                local_j = pieces[gk].translated(-source_j.dx, -source_j.dy)
                for cj in child_j.piece_index().query(local_j):
                    gj = pmap_j[cj]
                    if gj >= 0:
                        edge_set.add((gk, gj) if gk < gj else (gj, gk))
    art.piece_edges = sorted(edge_set.union(replayed))
    art.poly_comps, build.joined_comps["poly"] = _layer_components(
        build.view, "poly",
        [child.poly_comps if child else None for child in children])
    art.metal_comps, build.joined_comps["metal"] = _layer_components(
        build.view, "metal",
        [child.metal_comps if child else None for child in children])


def _layer_components(view: _View, layer: str,
                      child_comps: Sequence[Optional[List[List[int]]]]
                      ) -> Tuple[List[List[int]], List[List[int]]]:
    """``layer``'s components, and those of them that are not a replayed
    instance's."""
    sources, isolated = view.sources, view.isolated
    block_comps = [sources[0].view.index(layer).connected_components()]
    block_comps.extend(child_comps[1:])
    components, joined, _crossed = compose_components(
        view.layer(layer), block_comps,
        [None if isolated[k] else source.view.index(layer)
         for k, source in enumerate(sources)],
        [(source.dx, source.dy) for source in sources],
        [source.layer_bbox(layer) for source in sources], isolated)
    return components, joined


# -- stage 4: contacts, buried straps, labels ---------------------------------


def _contacts_and_labels(build: _Build) -> None:
    art, view, sources = build.art, build.view, build.sources
    children, DL = build.children, build.DL
    art.contact_touch = _compose_touch(build, "contact", strict=False,
                                       include_metal=True)
    art.buried_touch = _compose_touch(build, "buried", strict=True,
                                      include_metal=False)

    poly_start = len(art.pieces)
    metal_start = poly_start + len(build.poly)
    label_offsets = view.label_offsets
    src_box_index = _BoxIndex.of_boxes(build.src_bbox)
    for src in range(len(sources)):
        child = children[src]
        offset = label_offsets[src]
        if src and build.isolated[src]:
            # Shifts keep each sorted list sorted.
            art.label_hits.extend(build.rebased_items(src, child.label_hits))
            continue
        for l_gid in range(offset, label_offsets[src + 1]):
            label = view.labels[l_gid]
            probe = label_probe(label)
            # The child's hits stand unless another source's shapes reach
            # the label's position (which may lie outside its own shapes).
            hits: Optional[List[int]] = None
            if src and not any(j != src for j in src_box_index.near(probe)):
                mapped_hits = [build.map_item(src, item)
                               for item in child.label_hits[l_gid - offset]]
                if all(g >= 0 for g in mapped_hits):
                    hits = mapped_hits
            if hits is None:
                hits = label_item_hits(label, build.conducting_candidates(probe),
                                       poly_start, metal_start, DL)
            art.label_hits.append(sorted(hits))


def _compose_touch(build: _Build, layer: str, strict: bool,
                   include_metal: bool) -> List[List[int]]:
    """Per ``layer`` rect (contact cut or buried strap): the items it joins."""
    view, sources, src_bbox = build.view, build.sources, build.src_bbox
    own_view, interface = build.own_view, build.interface_index
    rects = view.layer(layer)
    offsets = rects.starts
    own_cond_layers = [own_layer for own_layer in (build.DL + ["poly", "metal"])
                       if own_view.layer(own_layer)]
    suspect: Set[int] = set(range(offsets[0], offsets[1]))
    for k in interface.ids:
        source, box_k = sources[k], src_bbox[k]
        if not source.view.layer(layer):
            continue
        offset = offsets[k]
        # The cell's own conducting rects near this instance.
        for own_layer in own_cond_layers:
            own_rects = own_view.layer(own_layer).part(0)
            for oid in own_view.index(own_layer).query(box_k):
                for cid in source.probe(layer, own_rects[oid], strict=strict):
                    suspect.add(offset + cid)
        # Other interface instances touching it (a replayed one touches
        # nothing).
        for j in interface.near(box_k):
            if j != k:
                for cid in source.probe(layer, src_bbox[j], strict=strict):
                    suspect.add(offset + cid)
    result: List[List[int]] = []
    map_item = build.map_item
    for src in range(len(sources)):
        if src:
            child = build.children[src]
            child_touch = (child.contact_touch if layer == "contact"
                           else child.buried_touch)
            if build.isolated[src]:
                result.extend(build.rebased_items(src, child_touch))
                continue
        first = len(result)
        base = offsets[src]
        for gid in range(base, offsets[src + 1]):
            if src and gid not in suspect:
                touch = [map_item(src, item) for item in child_touch[gid - base]]
                if all(g >= 0 for g in touch):
                    result.append(touch)
                    continue
            result.append(build.conducting_candidates(
                rects[gid], strict=strict, include_metal=include_metal))
        build.joined_touches.extend(result[first:])
    return result


# -- stage 5: per-channel device data -----------------------------------------


def _devices(build: _Build) -> None:
    art, sources, children = build.art, build.sources, build.children
    poly, poly_offsets, piece_map = build.poly, build.poly_offsets, build.piece_map
    implant = build.view.layer("implant")
    own_view, device_box_index = build.own_view, build.device_box_index
    fresh_channels = build.fresh_channels
    own_probe_indexes = [own_view.index(layer)
                         for layer in (build.DL + ["poly", "implant"])
                         if own_view.layer(layer)]
    # Which interface instance each reused channel came from (the first
    # one to map it), and its id there.
    reused_from: Dict[int, Tuple[int, int]] = {}
    for k in build.interface_index.ids:
        for child_cid, gid in enumerate(build.chan_map[k]):
            if gid >= 0 and gid not in reused_from:
                reused_from[gid] = (k, child_cid)

    channels = art.channels
    for src in range(len(sources)):
        if src and build.isolated[src]:
            child, pmap = children[src], piece_map[src]
            gate_base = poly_offsets[src]
            art.gates.extend([None if gate is None else gate_base + gate
                              for gate in child.gates])
            art.terminals.extend([[pmap[p] for p in terminals]
                                  for terminals in child.terminals])
            art.depletion.extend(child.depletion)
            continue
        block = channels.part(src)
        first = channels.starts[src]
        for cid in range(first, channels.starts[src + 1]):
            channel = block[cid - first]
            origin = reused_from.get(cid)
            valid = origin is not None and cid not in fresh_channels
            if valid:
                # Foreign device geometry, or the cell's own poly /
                # diffusion / implant, can also supply a gate, terminal or
                # implant cover.
                valid = not (
                    any(j != origin[0] for j in device_box_index.near(channel))
                    or any(index.query(channel) for index in own_probe_indexes))
            gate_gid: Optional[int] = None
            terminals: Optional[List[int]] = None
            depletion = False
            if valid:
                k, child_cid = origin
                child = children[k]
                pmap = piece_map[k]
                mapped_terms = [pmap[p] for p in child.terminals[child_cid]]
                if all(g >= 0 for g in mapped_terms):
                    terminals = mapped_terms
                    depletion = child.depletion[child_cid]
                    child_gate = child.gates[child_cid]
                    if child_gate is not None:
                        gate_gid = poly_offsets[k] + child_gate
                else:
                    valid = False
            if not valid:
                gate_gid = gate_item(poly, build.layer_candidates(
                    "poly", build.poly_box_index, channel), channel)
                terminals = adjacent_piece_ids(
                    art.pieces, build.piece_candidates(channel), channel)
                depletion = covers(channel, implant, build.layer_candidates(
                    "implant", build.implant_box_index, channel))
            art.gates.append(gate_gid)
            art.terminals.append(terminals)
            art.depletion.append(depletion)


# -- stage 6: the node partition ----------------------------------------------


class _Walk:
    """One partition being spliced: how many of its items the segment walk
    has passed, how many of its nodes are numbered in this cell so far, and
    their numbers here."""

    __slots__ = ("nodes", "walked", "numbered", "number")

    def __init__(self, nodes: NodePartition):
        self.nodes = nodes
        self.walked = self.numbered = 0
        self.number = [0] * nodes.count


def _nodes(build: _Build, model: ParasiticModel) -> int:
    """The node partition of the items and its wire sums; returns how many
    items went through the union-find.

    The items come in segments, one per (layer, source): each diffusion
    layer's piece blocks, then the poly blocks, then the metal blocks.  The
    own and interface segments' items go through one union-find with the
    joins among them (``build.joined_*``), and :func:`partition_nodes`
    numbers that partition by first occurrence and folds its wire sums.  A
    replayed instance's items join only each other, so its segments are its
    child's partition, sliced in the child's own item order.  Walking the
    segments in item order, the nodes of a partition first met in a segment
    are the next run of its own (first-occurrence) numbering; that run takes
    the next ids here and brings its sums along.  The result is the
    first-occurrence partition of the whole enumeration — the flat
    union-find's — and no union and no ``find`` touches a replayed item.
    """
    art, isolated = build.art, build.isolated
    blocks = len(build.sources)
    poly, metal = build.poly, build.view.layer("metal")
    poly_start = len(art.pieces)
    metal_start = poly_start + len(poly)
    segments = [("diffusion", block % blocks, start, part) for block, (start, part)
                in enumerate(zip(art.pieces.starts, art.pieces.parts))]
    for layer, rects, base in (("poly", poly, poly_start),
                               ("metal", metal, metal_start)):
        segments.extend((layer, src, base + start, part) for src, (start, part)
                        in enumerate(zip(rects.starts, rects.parts)))

    replays = any(isolated)
    joined = [(layer, start, part) for layer, src, start, part in segments
              if not isolated[src]]
    to_joined: Sequence[int] = range(metal_start + len(metal))
    if replays:
        to_joined = [-1] * len(to_joined)
        count = 0
        for _layer, start, part in joined:
            to_joined[start:start + part.size] = range(count, count + part.size)
            count += part.size
    unioned = sum(part.size for _layer, _start, part in joined)
    finder = UnionFind(unioned)
    union = finder.union
    for i, j in build.joined_edges:
        union(to_joined[i], to_joined[j])
    chains = [(poly_start, comp) for comp in build.joined_comps["poly"]]
    chains += [(metal_start, comp) for comp in build.joined_comps["metal"]]
    chains += [(0, touching) for touching in build.joined_touches]
    for base, ids in chains:
        for first, second in zip(ids, ids[1:]):
            union(to_joined[base + first], to_joined[base + second])
    own = partition_nodes(finder, model, [
        (layer, rects) for layer, _start, part in joined
        for rects, _dx, _dy in part.runs])
    if not replays:
        art.nodes = own
        return unioned

    own_walk = _Walk(own)
    walks = [_Walk(build.children[k].nodes) if isolated[k] else own_walk
             for k in range(blocks)]
    node_of, wire_cap, wire_res = array("i"), array("d"), array("d")
    for _layer, src, _start, part in segments:
        if not part.size:
            continue
        walk = walks[src]
        nodes, walked, numbered, number = (walk.nodes, walk.walked,
                                           walk.numbered, walk.number)
        ids = nodes.node_of[walked:walked + part.size]
        walk.walked = walked + part.size
        met = max(ids) + 1
        first = len(wire_cap)
        if met > numbered:
            number[numbered:met] = range(first, first + met - numbered)
            wire_cap.extend(nodes.wire_cap[numbered:met])
            wire_res.extend(nodes.wire_res[numbered:met])
            walk.numbered = met
        node_of.fromlist([number[node] for node in ids])
    art.nodes = NodePartition(node_of, wire_cap, wire_res,
                              spliced=len(wire_cap) - own.count)
    return unioned
