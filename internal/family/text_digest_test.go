package family

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/kripke"
)

// instanceTextDigests pins the SHA-256 of kripke.EncodeText for every
// topology instance from the cutoff through size 12, plus ring M_14 (the
// sweep's largest instance): the label representation is internal, and
// changing it must not move one byte of the text encoding.  Each entry is
// topology, size, state count, digest.
var instanceTextDigests = []struct {
	topology string
	n        int
	states   int
	digest   string
}{
	{"ring", 3, 24, "f4706c5e3d88b7ab0c52ecfd96307214d4b8cacdd26cbb8ab18c09b58c7fcfb4"},
	{"ring", 4, 64, "6dcd4d1fbffe31d66e32471a6dfdbdb288a85c96deaed2be5bbcf974e7a0a68d"},
	{"ring", 5, 160, "be933eeb4c829362fb6687dbd4ddcbe3df32e2e585735b82295c87dd40164e42"},
	{"ring", 6, 384, "19c4da3d070e7e4f8bbb9763f3e9ace7e07a0d527f50586ad8103425ec72da42"},
	{"ring", 7, 896, "a1060443bd30d5b0be7b751c62ba68614508e72ed428173c38dcc0412a8b9777"},
	{"ring", 8, 2048, "a5b3ab8de3b14c7fc79293e470fede128255deb6f57981960797ba3a2da48cde"},
	{"ring", 9, 4608, "fe4ff1dda946e3f26ba0132f7d00a085e75063c52d867590d104158f973fa18e"},
	{"ring", 10, 10240, "6d67ca0014170aa1ef7b147e4aff4fc878659a9dc36a894e53bf0a6fbcde4d70"},
	{"ring", 11, 22528, "9ddf4a35cb22e7bf16dc87234485c85a55ac58068fda444c9db52fc1cf38ac34"},
	{"ring", 12, 49152, "2be84d2cddd85d06d25e30f0dcc338818f5c65909e88104b40cfed72078a0f5d"},
	{"ring", 14, 229376, "f0cd2614c0fd36c423e2550349cd2503e6c1cd9431223090c46334bf7a0d74ce"},
	{"star", 3, 6, "c240a9ccd5048ef59b8f00a0efe19eb69f917dffac965001e69d398131a07e8f"},
	{"star", 4, 8, "5edb9d996d63769cadc914bfb150836b15800ce314a8bbe42890a7cb0963324e"},
	{"star", 5, 10, "b70ba9b33e672c4907779662c3acaf5c97ef8d6a196a539b534d480ae99cd1d5"},
	{"star", 6, 12, "e4dc1fc1a410b0234c180a649e991a5fb7b0aaacc4bed14a6f23e45e49d98f65"},
	{"star", 7, 14, "4e8804810852bbfb71693a5923f3fa40d9f21353ed26c36fafbad0e44fd81225"},
	{"star", 8, 16, "58a3fb83be8e491c2fff4ae71c3956cefe4b5eafc083ef71fb5647d2def801bf"},
	{"star", 9, 18, "cf106921fb01376ceed6b8ff94daffdfe55820e27798759379011096b5098c80"},
	{"star", 10, 20, "54418396f2cace62c0bf841b774373e8d53c48387f787eb23bd7c741c79a9fd3"},
	{"star", 11, 22, "22d7bc4eaedf63213518a52d10733e8f2224dfd3d1957bc60a3a40bf2804b8f1"},
	{"star", 12, 24, "486ba39e5f74591f81b3df6cbf0d5531c2353514195ef8c87442b9fbd02beb88"},
	{"line", 3, 6, "aa5aee8e2f42df8a173b8126c4ffbfeb85c85467c1855fc98fbab77825fb32be"},
	{"line", 4, 8, "16829b4a3ec6adb05a2950f8518f01b72417158a09c421e2ff08fa13ba0287a6"},
	{"line", 5, 10, "f2231d2291fd16d366b724a3fc0b311bc5aa835d9c2f8a29a0f93f7ff013fa22"},
	{"line", 6, 12, "d9b39035b052c7d754f63e95cbda1fa889f2f4d970f8184ebd406276cb263e35"},
	{"line", 7, 14, "f326f6022cd52329a627b98d2888b296b8e22f2276b2d7ab856a095e450f88a7"},
	{"line", 8, 16, "f2ce7d65bbbabc0c5353e51b7053eb5e466cbb3c386c3a3679f4b4819117bfe3"},
	{"line", 9, 18, "421b9cce3d84430b2d53fd2bb3f609121c888729cf82520243798d19a262c4b9"},
	{"line", 10, 20, "b0ee659100343bcd1bed5786678031f50a88ef714d6ad3b8db703b96f2ac5805"},
	{"line", 11, 22, "2e581d8e262392981235e83357c0cf44f27b63cf3e5303a7e758dd2e1b7c0aed"},
	{"line", 12, 24, "8b23e620db94c5d09fa1d195a87dcf7231910e585329768c3098a72cfe8f80cf"},
	{"tree", 3, 6, "2f6460ca332895e1a3c862ec8a37fdcc1e847d27b01277ed211975df7baecba1"},
	{"tree", 4, 8, "ab1f7424c2db8351daeb1e1253deaf73869d3d7dab923d3ae6254ba51e3e94e3"},
	{"tree", 5, 10, "9c2aec87d1d6d19919a7f977cc0098203e8017e57df4faf81676ddafde1a706b"},
	{"tree", 6, 12, "c50ed1f1117e4e23acf0655d13728fc7f2a290626e8032c54b890eb5482d5394"},
	{"tree", 7, 14, "6963ea3dc05e4bee3ac488468e6a515e50774b54adff882eb1f4478c9816c6f8"},
	{"tree", 8, 16, "01aef985c613a7834d8fe727ba64899fa57570d1d71e3a23681e9548f5d8545c"},
	{"tree", 9, 18, "b7e6d4340ab34856fdd579d0203ac8c4521b35ea19e212fe60c9bcec83d681f7"},
	{"tree", 10, 20, "282fad0f512b7058439b34861300ec0e03652e29e8082c571f7ee8e2a8223bba"},
	{"tree", 11, 22, "ffc83de4a93dcee86815827c54e9ff54b986bed5faddef09e9d9ac3ad8c91ceb"},
	{"tree", 12, 24, "0e1e591c9c478391f5e4d49dd8cd88699c01af30330002a1a9e1c204d728a4f4"},
	{"torus", 4, 8, "7942d7c06240077539eda4c3092d538147fd6b6055dc3d75b20275c6f75c4660"},
	{"torus", 6, 12, "2fadc95f00952621db6b4770e85160cd7921941a0aacdd09099b566988c0ec42"},
	{"torus", 8, 16, "e5555ac0715b31e9045777402aece9063e7812fcb614408f89cc534d060cec50"},
	{"torus", 10, 20, "c68d30a84a317eeeef786311d3b448b87be0ea4070b34dd48537e8df45e3282d"},
	{"torus", 12, 24, "a57ede5f5ff9eda62fee04b87c17ee054ba23b26e0177d9e3b429f2bf08c233b"},
	{"torus3", 6, 12, "0106973c7236a701d8b7ae5768dd517d314e5499ad3a13c288bf7bb80d1e3a26"},
	{"torus3", 9, 18, "c36d5faa8bfb3c1f6d6a70ddae6e8d64ae72d9123bbc19d7eae62fdabbcb56be"},
	{"torus3", 12, 24, "94291e84a1139e8b04b62ed372f7182cb778347787ed0e3539571a57e7c75187"},
}

func TestInstanceTextDigests(t *testing.T) {
	ctx := context.Background()
	var want []string
	for _, d := range instanceTextDigests {
		want = append(want, fmt.Sprintf("%s %d %d %s", d.topology, d.n, d.states, d.digest))
	}
	var got []string
	for _, topo := range Topologies() {
		sizes := ValidSizesIn(topo, topo.CutoffSize(), 12)
		if topo.Name() == "ring" {
			sizes = append(sizes, 14)
		}
		for _, n := range sizes {
			m, _, err := BuildParallel(ctx, topo, n, 1)
			if err != nil {
				t.Fatalf("%s n=%d: %v", topo.Name(), n, err)
			}
			h := sha256.New()
			if err := kripke.EncodeText(h, m); err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s %d %d %x", topo.Name(), n, m.NumStates(), h.Sum(nil)))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d instances, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("instance %d: got %s, want %s", i, got[i], want[i])
		}
	}
}
