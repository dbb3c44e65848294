package visindex

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hipo/internal/geom"
	"hipo/internal/model"
)

// goldenObstacles loads the obstacle fields and device positions of the
// repository's golden fixtures, so the fuzz corpus starts from the exact
// geometry the end-to-end suite pins.
func goldenObstacles(t testing.TB) ([]*model.Scenario, [][]geom.Vec) {
	dir := filepath.Join("..", "..", "testdata", "golden")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("golden fixtures unreadable: %v", err)
	}
	type fixture struct {
		Scenario struct {
			Obstacles []struct {
				Vertices []struct{ X, Y float64 } `json:"vertices"`
			} `json:"obstacles"`
			Devices []struct {
				Pos struct{ X, Y float64 } `json:"pos"`
			} `json:"devices"`
		} `json:"scenario"`
	}
	var scs []*model.Scenario
	var devs [][]geom.Vec
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var fx fixture
		if err := json.Unmarshal(raw, &fx); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		sc := &model.Scenario{Region: model.Region{Min: geom.V(0, 0), Max: geom.V(40, 40)}}
		for _, o := range fx.Scenario.Obstacles {
			vs := make([]geom.Vec, len(o.Vertices))
			for i, v := range o.Vertices {
				vs[i] = geom.V(v.X, v.Y)
			}
			sc.Obstacles = append(sc.Obstacles, model.Obstacle{Shape: geom.Polygon{Vertices: vs}})
		}
		var pts []geom.Vec
		for _, d := range fx.Scenario.Devices {
			pts = append(pts, geom.V(d.Pos.X, d.Pos.Y))
		}
		scs = append(scs, sc)
		devs = append(devs, pts)
	}
	if len(scs) == 0 {
		t.Fatal("no golden fixtures found")
	}
	return scs, devs
}

// FuzzBatchedLOS differentially fuzzes the per-device visibility
// certificate, the batched form of line of sight the PDCS sweep uses,
// and the per-ray DDA walk against the brute-force obstacle scan: for any
// obstacle field, device b, query position a and reach, the walk must
// agree with brute force exactly, and a certificate verdict other than
// Uncertain must be brute force's answer. Obstacle fields come from the
// golden fixtures plus a denser randomized field; the seeds add the probe
// families of internal/geom's blocks_ref_test.go around each field's first
// obstacle: vertex grazes, collinear edge overlaps, queries ending on the
// boundary, and a device on an obstacle edge.
func FuzzBatchedLOS(f *testing.F) {
	scs, devs := goldenObstacles(f)
	scs = append(scs, randomScenario(42, 24))
	devs = append(devs, nil)

	ixs := make([]*Index, len(scs))
	for i, sc := range scs {
		ixs[i] = New(sc)
	}

	for i, pts := range devs {
		for _, p := range pts {
			f.Add(uint8(i), p.X, p.Y, 20.0, 20.0, 12.0)
			f.Add(uint8(i), 0.0, 0.0, p.X, p.Y, 50.0)
		}
	}
	f.Add(uint8(len(scs)-1), 1.0, 1.0, 39.0, 39.0, 60.0)
	f.Add(uint8(0), 18.0, 16.0, 22.0, 20.0, 6.0) // corner-to-corner across a fixture box
	for i, sc := range scs {
		if len(sc.Obstacles) == 0 {
			continue
		}
		vs := sc.Obstacles[0].Shape.Vertices
		g := sc.Obstacles[0].Shape.Centroid()
		for k, v := range vs {
			w := vs[(k+1)%len(vs)]
			dev := v.Add(v.Sub(g).Scale(2)) // outside, beyond the vertex
			for _, q := range [][2]geom.Vec{
				{v.Add(v.Sub(dev).Scale(0.5)), dev},              // grazes v
				{v, dev},                                         // ends on the vertex
				{geom.Lerp(v, w, 0.5), dev},                      // ends on an edge
				{geom.Lerp(v, w, 1.5), geom.Lerp(v, w, -0.5)},    // runs along the edge
				{geom.Lerp(v, w, 1.5), geom.Lerp(v, w, 1.25)},    // collinear, past the edge
				{g.Add(g.Sub(dev)), dev},                         // through the interior
				{dev.Add(geom.V(1e-7, 0)), geom.Lerp(v, w, 0.5)}, // device on the edge
			} {
				f.Add(uint8(i), q[0].X, q[0].Y, q[1].X, q[1].Y, 12.0)
			}
		}
	}

	f.Fuzz(func(t *testing.T, sel uint8, ax, ay, bx, by, reach float64) {
		for _, v := range []float64{ax, ay, bx, by, reach} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e4 {
				t.Skip("out of the supported coordinate range")
			}
		}
		i := int(sel) % len(scs)
		sc, ix := scs[i], ixs[i]
		a, b := geom.V(ax, ay), geom.V(bx, by)
		if reach <= 0 {
			reach = 1
		}

		want := model.BruteForce(sc.Obstacles).LineOfSight(a, b)
		if got := ix.LineOfSight(a, b); got != want {
			t.Fatalf("indexed walk disagrees with brute force: got %v want %v (a=%v b=%v)", got, want, a, b)
		}
		// Production shape: device b's certificate decides the ray from a.
		ct := newCertificate(ix, b, reach)
		switch v := ct.Classify(a, math.Sqrt(a.Sub(b).Len2())); {
		case v == Visible && !want, v == Blocked && want:
			t.Fatalf("certificate says %v, brute force line of sight %v (a=%v b=%v reach=%v)", v, want, a, b, reach)
		}
	})
}
