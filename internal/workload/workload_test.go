package workload

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/xrand"
)

func TestPoissonRate(t *testing.T) {
	r := xrand.New(1)
	p := Poisson{}
	var total sim.Time
	const n = 100000
	for i := 0; i < n; i++ {
		total += p.NextGap(r, 10000) // 10 KQPS -> mean gap 100us
	}
	mean := float64(total) / n
	if math.Abs(mean-100e3)/100e3 > 0.02 {
		t.Fatalf("mean gap = %vns, want ~100000", mean)
	}
}

func TestPoissonZeroRate(t *testing.T) {
	r := xrand.New(1)
	if g := (Poisson{}).NextGap(r, 0); g != sim.MaxTime {
		t.Fatalf("zero rate gap = %v", g)
	}
}

func TestMMPP2PreservesRate(t *testing.T) {
	r := xrand.New(2)
	m := NewMMPP2()
	var total sim.Time
	const n = 200000
	for i := 0; i < n; i++ {
		total += m.NextGap(r, 50000)
	}
	mean := float64(total) / n
	want := 1e9 / 50000.0
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("MMPP mean gap = %v, want ~%v", mean, want)
	}
}

func TestMMPP2Burstier(t *testing.T) {
	// The squared coefficient of variation of MMPP gaps must exceed
	// Poisson's (=1).
	r := xrand.New(3)
	m := NewMMPP2()
	var sum, sum2 float64
	const n = 200000
	for i := 0; i < n; i++ {
		g := float64(m.NextGap(r, 50000))
		sum += g
		sum2 += g * g
	}
	mean := sum / n
	cv2 := (sum2/n - mean*mean) / (mean * mean)
	if cv2 < 1.2 {
		t.Fatalf("MMPP cv^2 = %v, want > 1.2 (burstier than Poisson)", cv2)
	}
}

func TestLogNormalServiceMean(t *testing.T) {
	r := xrand.New(4)
	s := LogNormalService{MeanTime: 10 * sim.Microsecond, CV: 0.7}
	var total sim.Time
	const n = 200000
	for i := 0; i < n; i++ {
		total += s.Sample(r)
	}
	mean := float64(total) / n
	if math.Abs(mean-10e3)/10e3 > 0.03 {
		t.Fatalf("sampled mean = %v, want ~10000ns", mean)
	}
	if s.Mean() != 10*sim.Microsecond {
		t.Fatal("analytic mean wrong")
	}
}

func TestTailedServiceMeanAndTail(t *testing.T) {
	r := xrand.New(5)
	s := Memcached().Service.(TailedService)
	var total float64
	max := 0.0
	const n = 300000
	for i := 0; i < n; i++ {
		v := float64(s.Sample(r))
		total += v
		if v > max {
			max = v
		}
	}
	mean := total / n
	analytic := float64(s.Mean())
	if math.Abs(mean-analytic)/analytic > 0.05 {
		t.Fatalf("sampled mean %v vs analytic %v", mean, analytic)
	}
	// The tail must produce samples far beyond the body mean.
	if max < 5*analytic {
		t.Fatalf("max sample %v suspiciously small", max)
	}
	// And must respect the cap.
	if max > float64(s.TailCap) {
		t.Fatalf("sample %v exceeds cap %v", max, s.TailCap)
	}
}

func TestProfilesValid(t *testing.T) {
	for _, p := range []Profile{Memcached(), Kafka(), MySQL()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"memcached", "kafka", "mysql"} {
		p, err := ByName(n)
		if err != nil || p.Name != n {
			t.Errorf("ByName(%s) = %v, %v", n, p.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestFingerprintTextPinned pins Fingerprint's exact text. Snapshots
// store it and restores compare against it, so checkpoints written by
// earlier builds (whose fingerprints came from fmt's %g/%d/%v) only
// restore while the text stays byte-identical. The literals were
// recorded from that fmt implementation; the last two profiles reach
// MMPP2 mid-burst state, a bare log-normal service, and the %g corner
// cases (exponents, -0, NaN, +Inf).
func TestFingerprintTextPinned(t *testing.T) {
	byName := func(name string) Profile {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		p    Profile
		want string
	}{
		{byName("memcached"), "memcached|ref=2.2e+09|scal=0.45|rtt=117000|cv=0.3|arr=poisson|svc=tailed:lognormal:7000,0.7,0.05,25000,2.2,2000000"},
		{byName("kafka"), "kafka|ref=2.2e+09|scal=0.35|rtt=117000|cv=0.3|arr=mmpp2:4,0.2,2000000,false,0|svc=tailed:lognormal:25000,0.9,0.03,80000,2,5000000"},
		{byName("mysql"), "mysql|ref=2.2e+09|scal=0.6|rtt=117000|cv=0.25|arr=poisson|svc=tailed:lognormal:180000,1,0.02,600000,1.8,20000000"},
		{Profile{
			Name: "bursty", RefFreqHz: 2.5e9, FreqScalability: 0.125, NetworkRTT: 90000,
			Arrivals: &MMPP2{BurstRateBoost: 3.5, BurstFraction: 1.0 / 3, MeanBurst: 1500000, bursting: true, dwellLeft: 12345.678},
			Service:  LogNormalService{MeanTime: 4321, CV: 1e-7},
		}, "bursty|ref=2.5e+09|scal=0.125|rtt=90000|cv=0|arr=mmpp2:3.5,0.3333333333333333,1500000,true,12345.678|svc=lognormal:4321,1e-07"},
		{Profile{
			Name: "odd|tail", RefFreqHz: 1e21, FreqScalability: math.Copysign(0, -1), NetworkRTT: -1, NetworkCV: math.NaN(),
			Arrivals: Poisson{},
			Service: TailedService{Body: LogNormalService{MeanTime: 3, CV: 123456789}, TailProb: 0.05,
				TailXm: 25000, TailAlpha: math.Inf(1)},
		}, "odd|tail|ref=1e+21|scal=-0|rtt=-1|cv=NaN|arr=poisson|svc=tailed:lognormal:3,1.23456789e+08,0.05,25000,+Inf,0"},
	}
	for _, tc := range cases {
		got, ok := tc.p.Fingerprint()
		if !ok || got != tc.want {
			t.Errorf("%s: Fingerprint() = %q, %v\nwant %q", tc.p.Name, got, ok, tc.want)
		}
		prefix := []byte("x")
		if b, ok := tc.p.AppendFingerprint(prefix); !ok || string(b) != "x"+tc.want {
			t.Errorf("%s: AppendFingerprint did not append the Fingerprint text: %q", tc.p.Name, b)
		}
	}
}

func TestUtilizationAt(t *testing.T) {
	p := Memcached()
	// Paper: latency-critical servers run at 5-25% utilization across the
	// evaluated load range.
	lo := p.UtilizationAt(10e3, 20)
	hi := p.UtilizationAt(500e3, 20)
	if lo <= 0 || lo > 0.03 {
		t.Errorf("10KQPS utilization = %v, want well under 5%%", lo)
	}
	if hi < 0.15 || hi > 0.35 {
		t.Errorf("500KQPS utilization = %v, want ~20-25%%", hi)
	}
	if p.UtilizationAt(1000, 0) != 0 {
		t.Error("zero cores must give 0")
	}
}

func TestSampleNetwork(t *testing.T) {
	r := xrand.New(6)
	p := Memcached()
	var total float64
	const n = 100000
	for i := 0; i < n; i++ {
		total += float64(p.SampleNetwork(r))
	}
	mean := total / n
	if math.Abs(mean-117e3)/117e3 > 0.03 {
		t.Fatalf("network mean = %vns, want ~117us", mean)
	}
	// Zero-RTT profile.
	p.NetworkRTT = 0
	if p.SampleNetwork(r) != 0 {
		t.Fatal("zero RTT must sample 0")
	}
	// Deterministic RTT with no CV.
	p.NetworkRTT = 10 * sim.Microsecond
	p.NetworkCV = 0
	if p.SampleNetwork(r) != 10*sim.Microsecond {
		t.Fatal("cv=0 must return RTT exactly")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	p := Memcached()
	p.RefFreqHz = 0
	if p.Validate() == nil {
		t.Error("zero frequency accepted")
	}
	p = Memcached()
	p.Arrivals = nil
	if p.Validate() == nil {
		t.Error("nil arrivals accepted")
	}
	p = Memcached()
	p.FreqScalability = 1.5
	if p.Validate() == nil {
		t.Error("scalability > 1 accepted")
	}
}

func TestServiceMeansOrdered(t *testing.T) {
	// MySQL transactions >> Kafka batches >> Memcached lookups.
	mc := Memcached().Service.Mean()
	kf := Kafka().Service.Mean()
	my := MySQL().Service.Mean()
	if !(mc < kf && kf < my) {
		t.Fatalf("service means not ordered: %v %v %v", mc, kf, my)
	}
}
