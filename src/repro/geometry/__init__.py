"""Geometric substrate for the silicon compiler.

All layout geometry is expressed in integer *lambda-hundredths* (centilambda)
or plain integer lambda units, on a Manhattan-dominant grid.  The package
provides points, orthogonal transforms (the CIF transform group: mirror,
rotate by multiples of 90 degrees, translate), rectangles, polygons, paths
and bounding boxes.

The design follows the Caltech Intermediate Form model of geometry: every
primitive can be reduced to polygons, and transforms compose left-to-right
exactly as CIF call transforms do.
"""

from repro.geometry.point import Point, manhattan_distance
from repro.geometry.transform import Transform, Orientation
from repro.geometry.rect import Rect
from repro.geometry.polygon import Polygon, polygon_centroid
from repro.geometry.path import Path, path_to_polygon
from repro.geometry.bbox import BoundingBox, union_bbox
from repro.geometry.index import SpatialIndex, GridIndex, BruteForceIndex, build_index

__all__ = [
    "Point",
    "manhattan_distance",
    "Transform",
    "Orientation",
    "Rect",
    "SpatialIndex",
    "GridIndex",
    "BruteForceIndex",
    "build_index",
    "Polygon",
    "polygon_centroid",
    "Path",
    "path_to_polygon",
    "BoundingBox",
    "union_bbox",
]
