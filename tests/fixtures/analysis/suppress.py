"""Suppression model fixture: reasons are mandatory, ids must be known,
coverage is per-line."""


class Allowed:  # repro: allow[HOT-slots] fixture: a reasoned suppression silences the finding
    pass


class OtherRule:  # expect[HOT-slots] # repro: allow[HOT-closure] a different rule's suppression does not cover this
    pass


class Reasonless:  # expect[HOT-slots,META-suppression] # repro: allow[HOT-slots]
    pass


# repro: allow[HOT-slots] fixture: an alone-on-line suppression covers the next line
class NextLine:
    pass


def unknown():
    value = 1  # expect[META-suppression] # repro: allow[NOT-a-rule] unknown rule ids are flagged
    return value
