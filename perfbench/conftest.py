"""Self-tests import the program from the checkout's ``src``."""

from perfbench.run import use_checkout

use_checkout()
