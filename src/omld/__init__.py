"""omld: OpenMath Content Dictionaries as Linked Data.

Parse Turtle datasets whose derived data points carry computed-from
annotations, translate those annotations to OpenMath objects, expand
dataset-local symbols via definitional FMPs fetched over HTTP, evaluate the
results, and verify or recompute the stored values.  The package also ships
the publishing side: a content-negotiating HTTP server for CD directories.
"""

__version__ = "0.1.0"
