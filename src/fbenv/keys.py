"""X11 keysym codes used in KeyEvent messages.

Arrows and editing keys follow the X11 keysymdef values; printable ASCII
characters map directly to their codepoints.
"""

KEY_SPACE = 0x0020
KEY_RETURN = 0xFF0D
KEY_ESCAPE = 0xFF1B
KEY_LEFT = 0xFF51
KEY_UP = 0xFF52
KEY_RIGHT = 0xFF53
KEY_DOWN = 0xFF54
