"""Joint country-level and province-level text identification.

A compact, dependency-light engine: dense tensors with reverse-mode
automatic differentiation, a small trainable transformer encoder, one
attention-pooling layer per task, and two classifiers trained against a
summed cross-entropy objective. Ships with a TSV data pipeline, a
synthetic hierarchical corpus generator, and a command-line interface.
"""

__version__ = "0.1.0"

# Environment variables that set the BLAS thread count, which changes
# the summation order of large products and so the trained bytes.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
