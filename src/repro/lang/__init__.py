"""The extensible layout language, embedded in Python.

Gray's central argument is that software engineers should participate in
silicon design by *writing programs* that compile to manufacturing data.
This package is that language.  A generator subclasses
:class:`ParameterizedCell`, declares its :class:`Parameter` s and draws in
``build()`` with :class:`~repro.layout.cell.Cell`'s own methods
(``add_rect`` / ``add_box`` / ``add_wire`` / ``place``); repeated bricks
come from :func:`~repro.lang.parameters.shared_brick`, so a structure that draws the same brick
many times defines one master.  Finished cells are assembled the same way:
a parent cell ``place`` s each child where its ports abut its neighbours'.
Data-type extension happens the ordinary Python way: generator classes add
their own parameter types and validation.
"""

from repro.lang.parameters import Parameter, ParameterizedCell, ParameterError

__all__ = [
    "Parameter",
    "ParameterizedCell",
    "ParameterError",
]
