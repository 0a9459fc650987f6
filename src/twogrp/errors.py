"""Exception types shared across the library."""


class TwogrpError(Exception):
    """Base class for all library errors."""


class InvalidFactor(TwogrpError):
    pass


class ShapeMismatch(TwogrpError):
    pass


class NotAGroup(TwogrpError):
    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        msg = "not a group: %s" % reason
        if witness is not None:
            msg += " (witness %r)" % (witness,)
        super().__init__(msg)


class UnsupportedSpec(TwogrpError):
    pass


class IndexOutOfRange(TwogrpError):
    pass


class SizeBound(TwogrpError):
    pass


class DegreeMismatch(TwogrpError):
    pass


class WitnessMismatch(TwogrpError):
    """A witness or kernel the library computed failed its own verification."""


class NotACocycle(TwogrpError):
    def __init__(self, witness=None):
        self.witness = witness
        msg = "not a cocycle"
        if witness is not None:
            msg += " (witness %r)" % (witness,)
        super().__init__(msg)


class NotNormalized(TwogrpError):
    def __init__(self, witness=None):
        self.witness = witness
        msg = "cochain is not normalized"
        if witness is not None:
            msg += " (witness %r)" % (witness,)
        super().__init__(msg)


class TruncationMismatch(TwogrpError):
    pass


class DimensionBound(TwogrpError):
    pass


class ParseError(TwogrpError):
    pass
