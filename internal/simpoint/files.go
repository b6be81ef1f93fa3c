package simpoint

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The SimPoint tool emits two parallel text files: a ".simpoints" file with
// lines "<sliceIndex> <pointID>" and a ".weights" file with lines
// "<weight> <pointID>". We reproduce the format so downstream tooling (and
// eyeballs used to the original) can consume our output.

// WriteSimpointsFile writes the ".simpoints" file body.
func (r *Result) WriteSimpointsFile(w io.Writer) error {
	for i, pt := range r.Points {
		if _, err := fmt.Fprintf(w, "%d %d\n", pt.SliceIndex, i); err != nil {
			return fmt.Errorf("simpoint: write simpoints: %w", err)
		}
	}
	return nil
}

// WriteWeightsFile writes the ".weights" file body.
func (r *Result) WriteWeightsFile(w io.Writer) error {
	for i, pt := range r.Points {
		if _, err := fmt.Fprintf(w, "%.6f %d\n", pt.Weight, i); err != nil {
			return fmt.Errorf("simpoint: write weights: %w", err)
		}
	}
	return nil
}

// SaveFiles writes "<prefix>.simpoints" and "<prefix>.weights".
func (r *Result) SaveFiles(prefix string) error {
	for _, f := range []struct {
		suffix string
		write  func(io.Writer) error
	}{
		{".simpoints", r.WriteSimpointsFile},
		{".weights", r.WriteWeightsFile},
	} {
		file, err := os.Create(prefix + f.suffix)
		if err != nil {
			return fmt.Errorf("simpoint: %w", err)
		}
		bw := bufio.NewWriter(file)
		if err := f.write(bw); err != nil {
			_ = file.Close() // the write error is the one worth reporting
			return err
		}
		if err := bw.Flush(); err != nil {
			_ = file.Close()
			return fmt.Errorf("simpoint: flush: %w", err)
		}
		if err := file.Close(); err != nil {
			return fmt.Errorf("simpoint: close: %w", err)
		}
	}
	return nil
}

// FilePoint is one (sliceIndex, weight) pair parsed back from the SimPoint
// text files.
type FilePoint struct {
	SliceIndex int
	Weight     float64
}

// ReadFiles parses "<prefix>.simpoints" and "<prefix>.weights" back into
// (sliceIndex, weight) pairs keyed by point ID order. Every slice index
// must be a non-negative integer and every weight finite and
// non-negative; a violation is reported with its file and line.
func ReadFiles(prefix string) ([]FilePoint, error) {
	spFile, err := os.Open(prefix + ".simpoints")
	if err != nil {
		return nil, fmt.Errorf("simpoint: %w", err)
	}
	defer spFile.Close()
	wFile, err := os.Open(prefix + ".weights")
	if err != nil {
		return nil, fmt.Errorf("simpoint: %w", err)
	}
	defer wFile.Close()
	return parseFiles(prefix, spFile, wFile)
}

// parseFiles is ReadFiles over open file bodies; prefix names them in
// errors.
func parseFiles(prefix string, simpointsBody, weightsBody io.Reader) ([]FilePoint, error) {
	simpoints, err := readPairs(prefix+".simpoints", simpointsBody, checkSliceIndex)
	if err != nil {
		return nil, err
	}
	weights, err := readPairs(prefix+".weights", weightsBody, checkWeight)
	if err != nil {
		return nil, err
	}
	if len(simpoints) != len(weights) {
		return nil, fmt.Errorf("simpoint: %d simpoints vs %d weights", len(simpoints), len(weights))
	}
	out := make([]FilePoint, len(simpoints))
	for i, sp := range simpoints {
		w := weights[i]
		if sp.id != w.id {
			return nil, fmt.Errorf("simpoint: point id mismatch: %s.simpoints:%d has %d, %s.weights:%d has %d",
				prefix, sp.line, sp.id, prefix, w.line, w.id)
		}
		out[i] = FilePoint{SliceIndex: int(sp.value), Weight: w.value}
	}
	return out, nil
}

// checkSliceIndex accepts a slice index: an integer in [0, MaxInt).
func checkSliceIndex(v float64) error {
	if v < 0 || v != math.Trunc(v) || v >= math.MaxInt {
		return fmt.Errorf("slice index %v is not a non-negative integer", v)
	}
	return nil
}

// checkWeight accepts a weight: finite and non-negative.
func checkWeight(v float64) error {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("weight %v is not finite and non-negative", v)
	}
	return nil
}

// pair is one "<value> <id>" line and the line it came from.
type pair struct {
	value float64
	id    int
	line  int
}

// readPairs parses the "<value> <id>" lines of one file body, skipping
// blank lines; check vets each value. name labels errors.
func readPairs(name string, r io.Reader, check func(float64) error) ([]pair, error) {
	var out []pair
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("simpoint: %s:%d: want 2 fields, got %d", name, line, len(fields))
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("simpoint: %s:%d: %w", name, line, err)
		}
		if err := check(v); err != nil {
			return nil, fmt.Errorf("simpoint: %s:%d: %w", name, line, err)
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("simpoint: %s:%d: %w", name, line, err)
		}
		out = append(out, pair{value: v, id: id, line: line})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("simpoint: scan %s: %w", name, err)
	}
	return out, nil
}
