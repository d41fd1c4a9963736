"""Index-membership stock price direction prediction pipeline.

Each name is imported from the submodule that defines it, such as ``pricedir.pipeline``."""
