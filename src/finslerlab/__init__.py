"""finslerlab: numerical Landsberg/Berwald verification for Finsler metrics."""

import logging

__version__ = "0.1.0"

# The "finslerlab" logger is silent unless the application configures
# logging; verify logs its fallback to one-sample evaluation at DEBUG.
logging.getLogger(__name__).addHandler(logging.NullHandler())
