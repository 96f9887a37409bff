"""The smallest network config the test files build, shared by them."""

from ldrestore.network import NetConfig

TINY = NetConfig(image_size=16, c_lat=3, c_enc=3, c_hid=4, c_mid=5, prompt_dim=4, temb_dim=4)
