"""The run-aware degree-sequence kernel, in pure Python.

Its cost follows the number of runs and emitted components, not the vertex
count. The rest of the package calls its three functions through this
module (``_kernel.eg_graphical(...)``), so a wrapper set on one of its
attributes sees every call. ``decompose_runs`` returns None for a sequence
that is not graphical. ``reference`` holds the naive per-vertex versions the
tests compare against.
"""

from ._pykernel import decompose_runs, eg_graphical, normalize_runs

IMPL = "python"
