# the sampled-element helpers live with the verify-all stages that seed them
from diracindex.report import random_multivector, random_two_form  # noqa: F401
